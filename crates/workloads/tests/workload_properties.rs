//! Property tests for the workload implementations: firewall/NAT
//! totality and index-filter behaviour.

use horse_workloads::{
    index_filter, Firewall, FirewallRule, NatRule, NatTable, Protocol, RequestHeader,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The firewall is total and deterministic: every header gets exactly
    /// one verdict, and any-source rules dominate prefixed ones.
    #[test]
    fn firewall_is_total_and_consistent(
        headers in proptest::collection::vec(
            (any::<u32>(), any::<u16>(), any::<u16>(), any::<bool>()),
            0..100
        ),
    ) {
        let fw = Firewall::new(vec![
            FirewallRule::any_source(443, Protocol::Tcp),
            FirewallRule::from_prefix(22, Protocol::Tcp, [10, 0, 0, 0], 8),
        ]);
        for (src, sport, dport, tcp) in headers {
            let proto = if tcp { Protocol::Tcp } else { Protocol::Udp };
            let h = RequestHeader {
                src_ip: src,
                dst_ip: 1,
                src_port: sport,
                dst_port: dport,
                proto,
            };
            let v1 = fw.evaluate(&h);
            let v2 = fw.evaluate(&h);
            prop_assert_eq!(v1, v2, "determinism");
            if dport == 443 && tcp {
                prop_assert_eq!(v1, horse_workloads::Verdict::Allow);
            }
            if dport == 22 && tcp {
                let in_prefix = src >> 24 == 10;
                prop_assert_eq!(v1 == horse_workloads::Verdict::Allow, in_prefix);
            }
        }
    }

    /// NAT translation preserves everything except the destination, and
    /// only fires for registered endpoints.
    #[test]
    fn nat_rewrites_exactly_the_destination(
        dst_port in any::<u16>(),
        src in any::<u32>(),
        sport in any::<u16>(),
    ) {
        let nat = NatTable::new(vec![NatRule::new(
            ([203, 0, 113, 1], 80),
            Protocol::Tcp,
            ([10, 0, 0, 9], 8080),
        )]);
        let h = RequestHeader {
            src_ip: src,
            dst_ip: u32::from_be_bytes([203, 0, 113, 1]),
            src_port: sport,
            dst_port,
            proto: Protocol::Tcp,
        };
        match nat.translate(&h) {
            Ok(out) => {
                prop_assert_eq!(dst_port, 80, "only the registered port maps");
                prop_assert_eq!(out.src_ip, h.src_ip);
                prop_assert_eq!(out.src_port, h.src_port);
                prop_assert_eq!(out.dst_ip, u32::from_be_bytes([10, 0, 0, 9]));
                prop_assert_eq!(out.dst_port, 8080);
            }
            Err(_) => prop_assert_ne!(dst_port, 80),
        }
    }

    /// index_filter returns exactly the indexes of qualifying elements.
    #[test]
    fn index_filter_is_exact(
        data in proptest::collection::vec(any::<i32>(), 0..500),
        threshold in any::<i32>(),
    ) {
        let out = index_filter(&data, threshold);
        // Sorted, unique, correct membership.
        prop_assert!(out.windows(2).all(|w| w[0] < w[1]));
        for (i, &v) in data.iter().enumerate() {
            prop_assert_eq!(out.contains(&i), v > threshold);
        }
    }
}
