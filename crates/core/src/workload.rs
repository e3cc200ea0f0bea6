//! The data-size model: the paper's Tables 10a and 10b.

/// The neuroscience workload: `subjects` HCP-like subjects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeuroWorkload {
    /// Number of subjects (the paper sweeps 1–25).
    pub subjects: usize,
}

impl NeuroWorkload {
    /// Volumes per subject (288 in the S900 protocol).
    pub const VOLUMES: usize = 288;
    /// b=0 calibration volumes among them.
    pub const B0_VOLUMES: usize = 18;
    /// Uncompressed bytes per subject (4.2 GB: 145×145×174×288 float32).
    pub const SUBJECT_BYTES: u64 = 4_200_000_000;
    /// Voxels per volume (145 × 145 × 174).
    pub const VOXELS_PER_VOLUME: u64 = 145 * 145 * 174;

    /// Bytes of one image volume.
    pub fn volume_bytes() -> u64 {
        Self::SUBJECT_BYTES / Self::VOLUMES as u64
    }

    /// Total input bytes (Table 10a's "Input" row).
    pub fn input_bytes(&self) -> u64 {
        self.subjects as u64 * Self::SUBJECT_BYTES
    }

    /// Largest intermediate bytes (Table 10a: 2× the input — the denoised
    /// copy coexists with the input during Step 2N/3N).
    pub fn largest_intermediate_bytes(&self) -> u64 {
        2 * self.input_bytes()
    }

    /// The paper's subject sweep for Figure 10.
    pub fn sweep() -> Vec<NeuroWorkload> {
        [1, 2, 4, 8, 12, 25]
            .into_iter()
            .map(|subjects| NeuroWorkload { subjects })
            .collect()
    }
}

/// The astronomy workload: `visits` HiTS-like visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AstroWorkload {
    /// Number of visits (the paper sweeps 2–24).
    pub visits: usize,
}

impl AstroWorkload {
    /// Sensor exposures per visit.
    pub const SENSORS: usize = 60;
    /// Bytes per sensor image (the paper's "80MB 2D image").
    pub const SENSOR_BYTES: u64 = 80_000_000;
    /// Pixels per sensor (4000 × 4072).
    pub const PIXELS_PER_SENSOR: u64 = 4000 * 4072;
    /// Average exposure→patch fan-out ("each exposure can be part of 1 to
    /// 6 patches"); 2.5 is the paper's measured average data growth.
    pub const PATCH_FANOUT: f64 = 2.5;
    /// Sky patches receiving data in the full 24-visit footprint.
    pub const PATCHES: usize = 28;

    /// Bytes per visit (Table 10b: 4.8 GB).
    pub fn visit_bytes() -> u64 {
        Self::SENSORS as u64 * Self::SENSOR_BYTES
    }

    /// Total input bytes (Table 10b's "Input" row).
    pub fn input_bytes(&self) -> u64 {
        self.visits as u64 * Self::visit_bytes()
    }

    /// Largest intermediate bytes (Table 10b: 2.5× the input from patch
    /// replication).
    pub fn largest_intermediate_bytes(&self) -> u64 {
        (self.input_bytes() as f64 * Self::PATCH_FANOUT) as u64
    }

    /// The paper's visit sweep for Figure 10.
    pub fn sweep() -> Vec<AstroWorkload> {
        [2, 4, 8, 12, 24]
            .into_iter()
            .map(|visits| AstroWorkload { visits })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes in one gigabyte as the paper counts them (decimal).
    const GB: f64 = 1e9;

    #[test]
    fn table_10a_input_row() {
        // Paper: 4.1, 8.4, 16.8, 33.6, 50.4, 105 GB for 1,2,4,8,12,25.
        let gb: Vec<f64> = NeuroWorkload::sweep()
            .iter()
            .map(|w| w.input_bytes() as f64 / GB)
            .collect();
        let expected = [4.2, 8.4, 16.8, 33.6, 50.4, 105.0];
        for (g, e) in gb.iter().zip(expected) {
            assert!((g - e).abs() < 0.15, "{g} vs {e}");
        }
    }

    #[test]
    fn table_10a_intermediate_is_double() {
        let w = NeuroWorkload { subjects: 12 };
        assert_eq!(w.largest_intermediate_bytes(), 2 * w.input_bytes());
        // 100.8 GB in the paper.
        assert!((w.largest_intermediate_bytes() as f64 / GB - 100.8).abs() < 0.5);
    }

    #[test]
    fn table_10b_rows() {
        // Paper: input 9.6, 19.2, 38.4, 57.6, 115.2; intermediates 24..288.
        let ws = AstroWorkload::sweep();
        let inputs: Vec<f64> = ws.iter().map(|w| w.input_bytes() as f64 / GB).collect();
        let expected = [9.6, 19.2, 38.4, 57.6, 115.2];
        for (g, e) in inputs.iter().zip(expected) {
            assert!((g - e).abs() < 0.1, "{g} vs {e}");
        }
        let inter: Vec<f64> = ws
            .iter()
            .map(|w| w.largest_intermediate_bytes() as f64 / GB)
            .collect();
        let expected_inter = [24.0, 48.0, 96.0, 144.0, 288.0];
        for (g, e) in inter.iter().zip(expected_inter) {
            assert!((g - e).abs() < 0.5, "{g} vs {e}");
        }
    }

    #[test]
    fn volume_bytes_close_to_nifti_payload() {
        // 145·145·174·4 bytes = 14.6 MB per volume.
        let v = NeuroWorkload::volume_bytes() as f64;
        let exact = (NeuroWorkload::VOXELS_PER_VOLUME * 4) as f64;
        assert!((v - exact).abs() / exact < 0.01, "{v} vs {exact}");
    }
}
