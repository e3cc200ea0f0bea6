//! The astronomy use case end to end:
//!
//! 1. **Real execution** at test scale: a synthetic survey staged as real
//!    FITS files, run through the Spark and Myria analogs and through the
//!    SciDB-style native-AQL co-addition, all validated against the
//!    reference pipeline.
//! 2. **Paper-scale simulation**: Figure 10d/10h points and the Figure 15
//!    memory-management comparison.
//!
//! ```text
//! cargo run --release --example astronomy
//! ```

use scibench::core::experiments::{astro_e2e, myria_astro_mode, Setup};
use scibench::core::lower::Engine;
use scibench::core::usecases::astro as astro_uc;
use scibench::engine_rel::ExecutionMode;
use scibench::formats::fits;
use scibench::marray::NdArray;
use scibench::sciops::astro::pipeline::reference_pipeline;
use scibench::sciops::synth::sky::{SkySpec, SkySurvey};

fn main() {
    // ---- Part 1: real execution at test scale ------------------------
    let spec = SkySpec::test_scale();
    let survey = SkySurvey::generate(7, &spec);
    println!(
        "survey: {} visits × {} sensors of {}×{} px, {} injected sources",
        spec.n_visits,
        spec.sensors_per_visit(),
        spec.sensor_height,
        spec.sensor_width,
        spec.n_sources
    );

    // Stage visit 0 as real FITS files (flux + variance + mask HDUs).
    let dir = std::env::temp_dir().join("scibench_astro_example");
    std::fs::create_dir_all(&dir).expect("create staging dir");
    for e in &survey.visits[0] {
        // The real layout: f32 flux + f32 variance planes, u8 mask plane.
        let hdus = vec![
            fits::TypedHdu {
                cards: vec![
                    fits::Card {
                        key: "VISIT".into(),
                        value: e.visit.to_string(),
                    },
                    fits::Card {
                        key: "SENSOR".into(),
                        value: e.sensor.to_string(),
                    },
                ],
                data: fits::ImageData::F32(e.flux.cast()),
            },
            fits::TypedHdu {
                cards: vec![],
                data: fits::ImageData::F32(e.variance.cast()),
            },
            fits::TypedHdu {
                cards: vec![],
                data: fits::ImageData::U8(e.mask.clone()),
            },
        ];
        let path = dir.join(format!("v0_s{}.fits", e.sensor));
        std::fs::write(&path, fits::encode_typed(&hdus)).expect("write FITS");
    }
    let staged = std::fs::read_dir(&dir).expect("list").count();
    println!("staged {staged} FITS exposures for visit 0");

    // Run the pipeline on the reference, Spark and Myria; compare.
    let grid = survey.patch_grid();
    let (c, co, d) = astro_uc::astro_params();
    let reference = reference_pipeline(&survey.visits, &grid, &c, &co, &d);
    let spark = astro_uc::spark(&survey, 8);
    let myria = astro_uc::myria(&survey, 2, 2);
    println!(
        "detected sources — reference: {}, Spark: {}, Myria: {} (injected {})",
        reference.total_sources(),
        spark.catalogs.values().map(Vec::len).sum::<usize>(),
        myria.catalogs.values().map(Vec::len).sum::<usize>(),
        spec.n_sources
    );
    assert_eq!(
        reference.total_sources(),
        spark.catalogs.values().map(Vec::len).sum::<usize>()
    );

    // The SciDB-style co-addition in pure array operations on one patch.
    let patch = *reference.coadds.keys().next().expect("some patch");
    let patch_box = grid.patch_box(patch);
    let visits = survey.visits.len();
    let rows = patch_box.height as usize;
    let cols = patch_box.width as usize;
    // Build the (visit, rows, cols) cube of merged patch exposures.
    let mut cube = NdArray::<f64>::zeros(&[visits, rows, cols]);
    for (v, exposures) in survey.visits.iter().enumerate() {
        let calibrated: Vec<_> = exposures
            .iter()
            .map(|e| sciops::astro::calibrate_exposure(e, &c))
            .collect();
        let pieces: Vec<_> = calibrated
            .iter()
            .filter_map(|e| e.crop_to(&patch_box))
            .collect();
        let merged = sciops::astro::pipeline::merge_visit_pieces(&patch_box, &pieces);
        let slice = merged
            .flux
            .clone()
            .reshape(&[1, rows, cols])
            .expect("rank-3 slice");
        cube.write_subarray(&[v, 0, 0], &slice).expect("cube slice");
    }
    let db = engine_array::ArrayDb::connect(4);
    let coadd = astro_uc::scidb_coadd_cube(&db, &cube, 24).expect("scidb coadd runs");
    println!(
        "SciDB-style AQL coadd of patch {:?}: {}×{} px, mean flux {:.1}",
        patch,
        coadd.dims()[0],
        coadd.dims()[1],
        coadd.mean()
    );

    // ---- Part 2: paper-scale simulation ------------------------------
    println!("\nsimulated end-to-end runtimes at paper scale (24 visits, 115 GB):");
    let setup = Setup::default();
    for nodes in [16usize, 32, 64] {
        let m = astro_e2e(&setup, Engine::Myria, 24, nodes).expect("myria completes");
        let s = astro_e2e(&setup, Engine::Spark, 24, nodes).expect("spark completes");
        println!("  {nodes:>2} nodes:  Myria {m:>6.0}s   Spark {s:>6.0}s");
    }
    println!("\nMyria memory-management modes at 24 visits, 16 nodes (Figure 15):");
    for (name, mode) in [
        ("pipelined", ExecutionMode::Pipelined),
        ("materialized", ExecutionMode::Materialized),
        ("multi-query", ExecutionMode::MultiQuery { pieces: 4 }),
    ] {
        match myria_astro_mode(&setup, 24, 16, mode) {
            Ok(t) => println!("  {name:>12}: {t:.0}s"),
            Err(e) => println!("  {name:>12}: failed ({e})"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
