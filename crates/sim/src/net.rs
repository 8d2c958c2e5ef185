//! The simulated interconnect cost model.

/// Cost model for the cluster interconnect.
///
/// The paper's platform is a 140 Mbit/s Fore ATM switch driven directly via
/// AAL3/4, bypassing the Unix server. The paper does not report message
/// latencies, so the software overheads here are documented estimates (see
/// `DESIGN.md`); the wire rate is the quoted 140 Mbit/s, which at 25 MHz is
/// about 1.43 cycles per byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetModel {
    /// Fixed wire/switch latency per message, in cycles.
    pub latency_cycles: u64,
    /// Wire time per byte, in milli-cycles (1000 = one cycle per byte).
    pub per_byte_millicycles: u64,
    /// Sender-side software overhead per message, in cycles.
    pub send_overhead_cycles: u64,
    /// Receiver-side software overhead per message, in cycles.
    pub recv_overhead_cycles: u64,
}

impl NetModel {
    /// The default model for the paper's ATM cluster at 25 MHz.
    ///
    /// 20 µs switch latency (500 cycles), 140 Mbit/s wire (1430
    /// milli-cycles/byte), and 300 µs (7500 cycles) of protocol software on
    /// each side.
    pub fn atm_cluster() -> NetModel {
        NetModel {
            latency_cycles: 500,
            per_byte_millicycles: 1430,
            send_overhead_cycles: 7_500,
            recv_overhead_cycles: 7_500,
        }
    }

    /// A zero-cost network, useful in tests.
    pub fn ideal() -> NetModel {
        NetModel {
            latency_cycles: 0,
            per_byte_millicycles: 0,
            send_overhead_cycles: 0,
            recv_overhead_cycles: 0,
        }
    }

    /// Returns this model with every cost scaled by `num/den`.
    ///
    /// Used by the network-sensitivity ablation.
    pub fn scaled(self, num: u64, den: u64) -> NetModel {
        let s = |v: u64| v * num / den;
        NetModel {
            latency_cycles: s(self.latency_cycles),
            per_byte_millicycles: s(self.per_byte_millicycles),
            send_overhead_cycles: s(self.send_overhead_cycles),
            recv_overhead_cycles: s(self.recv_overhead_cycles),
        }
    }

    /// Wire time (latency plus serialization) for a message of `bytes`.
    pub(crate) fn wire_cycles(&self, bytes: u64) -> u64 {
        self.latency_cycles + (bytes * self.per_byte_millicycles).div_ceil(1000)
    }
}

impl Default for NetModel {
    fn default() -> NetModel {
        NetModel::atm_cluster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_scales_with_size() {
        let n = NetModel::atm_cluster();
        let small = n.wire_cycles(64);
        let large = n.wire_cycles(4096);
        assert!(large > small);
        // 4096 bytes at 1.43 cycles/byte is ~5858 cycles plus latency.
        assert_eq!(large, 500 + (4096u64 * 1430).div_ceil(1000));
    }

    #[test]
    fn ideal_network_is_free() {
        let n = NetModel::ideal();
        assert_eq!(n.wire_cycles(1_000_000), 0);
        assert_eq!(n.send_overhead_cycles, 0);
    }

    #[test]
    fn scaling_halves_costs() {
        let n = NetModel::atm_cluster().scaled(1, 2);
        assert_eq!(n.latency_cycles, 250);
        assert_eq!(n.per_byte_millicycles, 715);
    }
}
