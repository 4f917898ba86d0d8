//! The open-loop arrival schedule of `reliab_open`.
//!
//! A schedule is a pure function of `(seed, window, rate scale)`,
//! generated before the clock starts: the program under test only ever
//! sees requests. It is the superposition of
//!
//! * a Poisson background at [`POISSON_RATE_PER_S`], and
//! * one back-to-back burst of [`BURST_SIZE`] requests every
//!   [`BURST_PERIOD_NS`] (NFV / market-data shaped),
//!
//! so the mean rate is [`NOMINAL_RATE_PER_S`]. The periodic bursts put
//! p99 on a deterministic backlog ramp (each burst position waits for
//! the positions before it) instead of on host scheduler stalls; a
//! Poisson-burst variant varied 15 % run to run and was rejected.

/// Poisson background rate at scale 1.
pub const POISSON_RATE_PER_S: f64 = 125_000.0;
/// Requests per burst.
pub const BURST_SIZE: u64 = 128;
/// Burst period at scale 1: 128 requests / 1.024 ms = 125 k/s.
pub const BURST_PERIOD_NS: u64 = 1_024_000;
/// Mean arrival rate at scale 1.
pub const NOMINAL_RATE_PER_S: f64 = 250_000.0;
/// Share of arrivals that are `Background`-class `Warm` invocations.
pub const BACKGROUND_SHARE: f64 = 0.10;

/// One step of the splitmix64 generator (the repo's jitter generator;
/// re-stated here so the schedule depends on nothing but the seed).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in the open interval (0, 1).
fn unit(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Nanoseconds after the window start at which the request is due.
    pub due_ns: u64,
    /// `Background`/`Warm` (10 %) instead of `Ull`/`Horse`.
    pub background: bool,
    /// Part of a periodic burst (not of the Poisson background).
    pub burst: bool,
}

/// A generated schedule, packed one `u64` per arrival
/// (`due_ns << 2 | burst << 1 | background`) and sorted by due time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    packed: Vec<u64>,
}

impl Schedule {
    /// Generates the arrivals due inside `[0, window_ns)` at
    /// `scale × NOMINAL_RATE_PER_S` (the rate steps stretch or squeeze
    /// the same shape: Poisson rate × scale, burst period ÷ scale).
    pub fn generate(seed: u64, window_ns: u64, scale: f64) -> Self {
        assert!(scale > 0.0, "rate scale must be positive");
        let mut rng = seed ^ 0x6f70_656e_6c6f_6f70; // "openloop"
        let mean_gap_ns = 1e9 / (POISSON_RATE_PER_S * scale);
        let period_ns = (BURST_PERIOD_NS as f64 / scale).round() as u64;
        let expected = (window_ns as f64 * NOMINAL_RATE_PER_S * scale / 1e9) as usize;
        let mut packed = Vec::with_capacity(expected + expected / 50 + 1024);

        let mut next_burst = period_ns;
        let mut t = 0.0f64;
        loop {
            t += -unit(&mut rng).ln() * mean_gap_ns;
            let poisson_due = t as u64;
            // Emit every burst that starts before this Poisson arrival.
            while next_burst <= poisson_due && next_burst < window_ns {
                for _ in 0..BURST_SIZE {
                    packed.push(pack(next_burst, &mut rng, true));
                }
                next_burst += period_ns;
            }
            if poisson_due >= window_ns {
                break;
            }
            packed.push(pack(poisson_due, &mut rng, false));
        }
        Self { packed }
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Due time of arrival `i`, in ns after the window start.
    #[inline]
    pub fn due_ns(&self, i: usize) -> u64 {
        self.packed[i] >> 2
    }

    /// Arrival `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Arrival {
        let word = self.packed[i];
        Arrival {
            due_ns: word >> 2,
            background: word & 1 == 1,
            burst: word & 2 == 2,
        }
    }

    /// All arrivals, in due order.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = Arrival> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

fn pack(due_ns: u64, rng: &mut u64, burst: bool) -> u64 {
    let background = unit(rng) < BACKGROUND_SHARE;
    due_ns << 2 | u64::from(burst) << 1 | u64::from(background)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN_S: u64 = 10_000_000_000;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = Schedule::generate(42, TEN_S / 10, 1.0);
        let b = Schedule::generate(42, TEN_S / 10, 1.0);
        let c = Schedule::generate(43, TEN_S / 10, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_is_sorted_and_inside_the_window() {
        let s = Schedule::generate(7, TEN_S / 10, 1.0);
        assert!(s.len() > 0);
        assert!((1..s.len()).all(|i| s.due_ns(i - 1) <= s.due_ns(i)));
        assert!(s.due_ns(s.len() - 1) < TEN_S / 10);
    }

    #[test]
    fn burst_period_size_and_mean_rate_are_nominal() {
        let s = Schedule::generate(42, TEN_S, 1.0);
        // Bursts: exactly BURST_SIZE arrivals at every multiple of the
        // period inside the window.
        let mut bursts: Vec<u64> = s.iter().filter(|a| a.burst).map(|a| a.due_ns).collect();
        assert_eq!(bursts.len() as u64 % BURST_SIZE, 0);
        bursts.dedup();
        let expected_bursts = (TEN_S - 1) / BURST_PERIOD_NS;
        assert_eq!(bursts.len() as u64, expected_bursts);
        assert!(bursts
            .iter()
            .enumerate()
            .all(|(k, &due)| due == (k as u64 + 1) * BURST_PERIOD_NS));
        let burst_arrivals = s.iter().filter(|a| a.burst).count() as u64;
        assert_eq!(burst_arrivals, expected_bursts * BURST_SIZE);
        // Mean rate within 0.1 % of nominal.
        let rate = s.len() as f64 / (TEN_S as f64 / 1e9);
        assert!(
            (rate / NOMINAL_RATE_PER_S - 1.0).abs() < 1e-3,
            "mean rate {rate}"
        );
        // Class mix close to 90/10.
        let background = s.iter().filter(|a| a.background).count() as f64 / s.len() as f64;
        assert!((background - BACKGROUND_SHARE).abs() < 2e-3, "{background}");
    }

    #[test]
    fn rate_scale_stretches_the_same_shape() {
        let half = Schedule::generate(42, TEN_S / 10, 0.5);
        let rate = half.len() as f64 / (TEN_S as f64 / 1e10);
        assert!((rate / (NOMINAL_RATE_PER_S * 0.5) - 1.0).abs() < 1e-2);
        let first_burst = half.iter().find(|a| a.burst).expect("has bursts");
        assert_eq!(first_burst.due_ns, 2 * BURST_PERIOD_NS);
    }
}
