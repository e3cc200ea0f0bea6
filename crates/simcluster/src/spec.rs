//! Cluster hardware description.

/// One node's resources.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Physical cores (r3.2xlarge: 8 vCPU).
    pub cores: usize,
    /// Concurrent worker slots the engine runs on this node. More slots
    /// than cores over-subscribes the CPU (see [`NodeSpec::slot_speed`]).
    pub worker_slots: usize,
    /// Usable memory in bytes (r3.2xlarge: 61 GB).
    pub mem_bytes: u64,
    /// Local SSD sequential read bandwidth (bytes/s).
    pub disk_read_bw: f64,
    /// Local SSD sequential write bandwidth (bytes/s).
    pub disk_write_bw: f64,
    /// Measured intra-node scaling curve: `(busy_slots, aggregate_speedup)`
    /// points from a real kernel run (e.g. `scibench bench`'s
    /// `BENCH_kernels.json`), sorted by `busy_slots`. When present it
    /// replaces the analytic hyper-threading model in
    /// [`NodeSpec::slot_speed`]; between points the aggregate speedup is
    /// linearly interpolated, beyond the last point it is held flat.
    pub measured_scaling: Option<Vec<(usize, f64)>>,
}

impl NodeSpec {
    /// Physical cores: the r3.2xlarge's 8 vCPUs are 4 Ivy Bridge cores
    /// with hyper-threading.
    pub fn physical_cores(&self) -> usize {
        (self.cores / 2).max(1)
    }

    /// Relative execution speed of one busy slot when `busy_slots` run
    /// concurrently on this node.
    ///
    /// Up to the physical core count each slot runs at full speed. The
    /// hyper-threaded vCPUs add only ~15% throughput per extra slot for
    /// the memory-bandwidth-bound image kernels, *and* each extra slot
    /// adds cache/memory-bus interference — so aggregate throughput peaks
    /// at the physical core count and then declines. This is the
    /// Figure 13 mechanism: Myria's best configuration is 4 workers per
    /// 8-vCPU node, and 8 workers is strictly worse ("workers also compete
    /// for physical resources (memory, CPU, and disk IO)").
    /// Over-subscribing beyond the vCPU count degrades further.
    pub fn slot_speed(&self, busy_slots: usize) -> f64 {
        if busy_slots == 0 {
            return 1.0;
        }
        if let Some(curve) = &self.measured_scaling {
            if !curve.is_empty() {
                return Self::interp_aggregate(curve, busy_slots) / busy_slots as f64;
            }
        }
        let phys = self.physical_cores() as f64;
        let vcpu = self.cores as f64;
        let busy = busy_slots as f64;
        let aggregate = if busy <= phys {
            busy
        } else if busy <= vcpu {
            // Hyper-thread yield minus interference.
            (phys + 0.15 * (busy - phys)) * (1.0 - 0.05 * (busy - phys))
        } else {
            // Timesharing beyond the vCPUs: keep the vCPU-level aggregate
            // and shave 10% per doubling of over-subscription.
            let at_vcpu = (phys + 0.15 * (vcpu - phys)) * (1.0 - 0.05 * (vcpu - phys));
            (at_vcpu * (1.0 - 0.12 * (busy / vcpu - 1.0))).max(0.3 * at_vcpu)
        };
        aggregate / busy
    }

    /// Aggregate throughput at `busy_slots` from a measured curve:
    /// piecewise-linear between points, flat beyond the ends.
    fn interp_aggregate(curve: &[(usize, f64)], busy_slots: usize) -> f64 {
        let busy = busy_slots as f64;
        let first = curve[0];
        let last = curve[curve.len() - 1];
        if busy_slots <= first.0 {
            // Below the first measurement, scale linearly from the origin:
            // 1 busy slot is by definition aggregate 1× the serial rate.
            if first.0 <= 1 {
                return first.1;
            }
            let per_slot = (first.1 - 1.0) / (first.0 - 1) as f64;
            return 1.0 + per_slot * (busy - 1.0);
        }
        if busy_slots >= last.0 {
            return last.1;
        }
        for pair in curve.windows(2) {
            let (x0, y0) = pair[0];
            let (x1, y1) = pair[1];
            if busy_slots >= x0 && busy_slots <= x1 {
                let t = (busy - x0 as f64) / (x1 - x0) as f64;
                return y0 + t * (y1 - y0);
            }
        }
        last.1
    }
}

/// The full cluster plus its shared services (network, object store).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-node resources.
    pub node: NodeSpec,
    /// Point-to-point network bandwidth per flow (bytes/s).
    pub net_bw: f64,
    /// One-way network latency (s).
    pub net_latency: f64,
    /// Object-store (S3) bandwidth of a single connection (bytes/s).
    pub s3_bw_per_conn: f64,
    /// Aggregate object-store bandwidth cap per node (bytes/s).
    pub s3_node_cap: f64,
    /// Object-store request latency (s).
    pub s3_latency: f64,
}

impl ClusterSpec {
    /// The paper's platform: r3.2xlarge — 8 vCPU (Ivy Bridge), 61 GB RAM,
    /// 160 GB SSD — with typical EC2-to-S3 characteristics.
    pub fn r3_2xlarge(nodes: usize) -> ClusterSpec {
        ClusterSpec {
            nodes,
            node: NodeSpec {
                cores: 8,
                worker_slots: 8,
                mem_bytes: 61 * 1_000_000_000,
                disk_read_bw: 450e6,
                disk_write_bw: 380e6,
                measured_scaling: None,
            },
            net_bw: 120e6, // ~1 Gbps effective per flow
            net_latency: 0.5e-3,
            // 2016-era S3-to-EC2: ~25 MB/s per connection, ~60 MB/s
            // sustained per node across connections.
            s3_bw_per_conn: 25e6,
            s3_node_cap: 60e6,
            s3_latency: 30e-3,
        }
    }

    /// Same cluster with a different number of worker slots per node
    /// (the Figure 13 tuning knob).
    pub fn with_worker_slots(mut self, slots: usize) -> ClusterSpec {
        self.node.worker_slots = slots;
        self
    }

    /// Same cluster with a measured intra-node scaling curve replacing the
    /// analytic hyper-threading model (see [`NodeSpec::measured_scaling`]).
    /// Points must be sorted by slot count.
    pub fn with_measured_scaling(mut self, curve: Vec<(usize, f64)>) -> ClusterSpec {
        debug_assert!(
            curve.windows(2).all(|w| w[0].0 < w[1].0),
            "scaling curve must be sorted by slot count"
        );
        self.node.measured_scaling = Some(curve);
        self
    }

    /// Total worker slots across the cluster.
    pub fn total_slots(&self) -> usize {
        self.nodes * self.node.worker_slots
    }

    /// Effective S3 bandwidth for one task when `concurrent` downloads
    /// share a node.
    pub fn s3_rate(&self, concurrent: usize) -> f64 {
        self.s3_bw_per_conn
            .min(self.s3_node_cap / concurrent.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r3_matches_paper_hardware() {
        let c = ClusterSpec::r3_2xlarge(16);
        assert_eq!(c.nodes, 16);
        assert_eq!(c.node.cores, 8);
        assert_eq!(c.node.mem_bytes, 61_000_000_000);
        assert_eq!(c.total_slots(), 128);
    }

    #[test]
    fn slot_speed_full_up_to_physical_cores() {
        let n = ClusterSpec::r3_2xlarge(1).node;
        assert_eq!(n.physical_cores(), 4);
        assert_eq!(n.slot_speed(1), 1.0);
        assert_eq!(n.slot_speed(4), 1.0);
        assert!(n.slot_speed(8) < 1.0);
    }

    #[test]
    fn aggregate_throughput_peaks_at_physical_cores() {
        // The Figure 13 U-shape: node throughput (busy × speed) is maximal
        // at 4 busy slots and strictly lower at 6, 8 and 16.
        let n = ClusterSpec::r3_2xlarge(1).node;
        let agg = |b: usize| b as f64 * n.slot_speed(b);
        assert!(agg(2) > agg(1));
        assert!(agg(4) > agg(2));
        assert!(agg(6) < agg(4), "{} vs {}", agg(6), agg(4));
        assert!(agg(8) < agg(6));
        assert!(agg(16) < agg(8));
    }

    #[test]
    fn s3_rate_caps_aggregate() {
        let c = ClusterSpec::r3_2xlarge(1);
        assert_eq!(c.s3_rate(1), 25e6);
        assert!(c.s3_rate(8) < 25e6);
        assert!((c.s3_rate(8) - 60e6 / 8.0).abs() < 1.0);
    }

    #[test]
    fn worker_slots_override() {
        let c = ClusterSpec::r3_2xlarge(16).with_worker_slots(4);
        assert_eq!(c.total_slots(), 64);
    }

    #[test]
    fn measured_scaling_overrides_analytic_model() {
        // A linear-scaling measurement: every slot runs at full speed.
        let c = ClusterSpec::r3_2xlarge(1).with_measured_scaling(vec![
            (1, 1.0),
            (2, 2.0),
            (4, 4.0),
            (8, 8.0),
        ]);
        for busy in [1usize, 2, 4, 8] {
            assert!((c.node.slot_speed(busy) - 1.0).abs() < 1e-12, "busy={busy}");
        }
        // A sublinear measurement interpolates between points and holds
        // flat beyond the last one.
        let c = ClusterSpec::r3_2xlarge(1).with_measured_scaling(vec![(2, 1.8), (4, 3.0)]);
        assert!((c.node.slot_speed(2) - 0.9).abs() < 1e-12);
        // busy=3 interpolates aggregate (1.8+3.0)/2 = 2.4 → speed 0.8.
        assert!((c.node.slot_speed(3) - 0.8).abs() < 1e-12);
        // Beyond the curve, aggregate stays 3.0 → per-slot speed declines.
        assert!((c.node.slot_speed(8) - 3.0 / 8.0).abs() < 1e-12);
        // Below the first point, interpolate from the serial anchor (1, 1.0).
        assert!((c.node.slot_speed(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_measured_curve_falls_back_to_analytic() {
        let mut c = ClusterSpec::r3_2xlarge(1);
        c.node.measured_scaling = Some(Vec::new());
        let reference = ClusterSpec::r3_2xlarge(1);
        for busy in [1usize, 4, 8, 16] {
            assert_eq!(c.node.slot_speed(busy), reference.node.slot_speed(busy));
        }
    }
}
