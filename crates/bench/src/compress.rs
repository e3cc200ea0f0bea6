//! Compression benchmark: codec ratios per plane kind.
//!
//! Each plane of one science exposure on a gradient-free sky goes through
//! [`NdArray::compressed`]: the mask and the variance plane (the
//! read-noise floor plus islands under the sources) pack, and the flux
//! plane, noise in every pixel, stays dense. The codec ledger over those
//! encodes rides along. Results serialize as `BENCH_compress.json`
//! (schema `scibench-bench-compress/v2`).

use marray::{ChunkRepr, CodecCounter, CodecStats, NdArray};
use sciops::synth::sky::{SkySpec, SkySurvey};

/// Science geometry on a gradient-free sky: the variance plane is the
/// read-noise floor plus shot-noise islands under the sources — the
/// mostly-constant plane RLE is built for.
fn runny_science_spec(quick: bool) -> SkySpec {
    let scale = if quick { 1 } else { 2 };
    SkySpec {
        sensor_width: 48 * scale,
        sensor_height: 48 * scale,
        bg_gradient: 0.0,
        patch_size: 36 * scale as u64,
        ..SkySpec::test_scale()
    }
}

/// Compression outcome of one plane.
#[derive(Debug, Clone)]
pub struct PlaneRow {
    /// Plane name: `mask`, `variance` or `flux`.
    pub plane: &'static str,
    /// Representation [`NdArray::compressed`] chose.
    pub repr: ChunkRepr,
    /// Dense footprint in bytes.
    pub dense_bytes: u64,
    /// Stored footprint after compression (equals `dense_bytes` when no
    /// codec shrinks the plane).
    pub stored_bytes: u64,
    /// `dense_bytes / stored_bytes` — 1.0 for planes that stay dense.
    pub ratio: f64,
}

/// A whole `scibench bench compress` run.
#[derive(Debug, Clone)]
pub struct CompressRun {
    /// Compression per plane kind.
    pub planes: Vec<PlaneRow>,
    /// Codec ledger delta over the planes' encodes.
    pub codec: CodecStats,
}

fn plane_row<T: marray::Element>(plane: &'static str, arr: &NdArray<T>) -> PlaneRow {
    let packed = arr.compressed();
    let dense = arr.nbytes() as u64;
    let stored = packed.stored_nbytes() as u64;
    PlaneRow {
        plane,
        repr: packed.repr(),
        dense_bytes: dense,
        stored_bytes: stored,
        ratio: dense as f64 / stored.max(1) as f64,
    }
}

/// Run the whole compression suite.
pub fn run_compress(quick: bool) -> CompressRun {
    // Measured on a science exposure (with sources) so the variance row
    // exercises Rle rather than Const.
    let survey = SkySurvey::generate(315, &runny_science_spec(quick));
    let e = &survey.visits[0][0];
    let codec_before = CodecCounter::snapshot();
    let planes = vec![
        plane_row("mask", &e.mask),
        plane_row("variance", &e.variance),
        plane_row("flux", &e.flux),
    ];
    let codec = CodecCounter::snapshot().since(&codec_before);
    CompressRun { planes, codec }
}

/// Render a run as the `BENCH_compress.json` document
/// (schema `scibench-bench-compress/v2`). Hand-rolled like the other
/// bench writers: no JSON dependency in the workspace.
pub fn results_to_json(run: &CompressRun, host_parallelism: usize, quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"scibench-bench-compress/v2\",\n");
    out.push_str(&crate::hostinfo::host_block(host_parallelism));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"planes\": [\n");
    for (i, p) in run.planes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"plane\": \"{}\", \"repr\": \"{}\", \"dense_bytes\": {}, \
             \"stored_bytes\": {}, \"ratio\": {:.2}}}{}\n",
            p.plane,
            p.repr.as_str(),
            p.dense_bytes,
            p.stored_bytes,
            p.ratio,
            if i + 1 < run.planes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"codec\": {\n");
    let codecs: Vec<String> = run
        .codec
        .by_codec
        .iter()
        .map(|(name, s)| {
            format!(
                "    \"{name}\": {{\"encodes\": {}, \"decodes\": {}, \"dense_bytes\": {}, \
                 \"encoded_bytes\": {}}}",
                s.encodes, s.decodes, s.dense_bytes, s.encoded_bytes
            )
        })
        .collect();
    out.push_str(&codecs.join(",\n"));
    if !codecs.is_empty() {
        out.push('\n');
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_rows_hit_the_acceptance_ratios() {
        let survey = SkySurvey::generate(315, &runny_science_spec(true));
        let e = &survey.visits[0][0];
        let mask = plane_row("mask", &e.mask);
        let var = plane_row("variance", &e.variance);
        let flux = plane_row("flux", &e.flux);
        assert!(mask.ratio >= 2.0, "mask ratio {}", mask.ratio);
        assert!(var.ratio >= 2.0, "variance ratio {}", var.ratio);
        assert_eq!(flux.repr, ChunkRepr::Dense);
        assert!((flux.ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_schema_and_fields_are_stable() {
        let run = CompressRun {
            planes: vec![PlaneRow {
                plane: "mask",
                repr: ChunkRepr::Const,
                dense_bytes: 2304,
                stored_bytes: 9,
                ratio: 256.0,
            }],
            codec: CodecStats::default(),
        };
        let json = results_to_json(&run, 1, true);
        assert!(json.contains("\"schema\": \"scibench-bench-compress/v2\""));
        assert!(json.contains("\"single_core_host\": true"));
        assert!(json.contains("\"repr\": \"const\""));
        assert!(json.contains("\"ratio\": 256.00"));
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");
    }
}
