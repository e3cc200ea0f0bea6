//! `reproduce` — regenerate every table and figure of the paper's
//! evaluation section.
//!
//! Usage:
//! ```text
//! reproduce                # print everything, paper order
//! reproduce fig11 fig13    # print selected artifacts
//! reproduce --csv DIR      # also write one CSV per artifact into DIR
//! reproduce --calibrated   # calibrate kernel costs against the real
//!                          # sciops kernels on this machine first
//! reproduce scaling        # intra-node scaling table driven by a kernel
//!                          # scaling curve measured on this machine
//! reproduce --list         # list artifact ids
//! reproduce --check        # verify the paper's headline shape claims
//! reproduce --calibrated --check
//!                          # the same claims under calibrated kernel costs
//! ```

use scibench_core::costmodel::CostModel;
use scibench_core::experiments::{self, Setup, ARTIFACTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (id, _) in ARTIFACTS {
            println!("{id}");
        }
        return;
    }
    let csv_dir = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let mut setup = Setup::default();
    if args.iter().any(|a| a == "--calibrated") {
        eprintln!("calibrating kernel costs against the local sciops kernels...");
        setup.cm = CostModel::calibrated();
        eprintln!(
            "calibrated: denoise/volume = {:.1}s, mask/subject = {:.1}s, mean/subject = {:.2}s",
            setup.cm.neuro_denoise_per_volume,
            setup.cm.neuro_mask_per_subject,
            setup.cm.neuro_mean_per_subject
        );
    }
    if args.iter().any(|a| a == "--check") {
        let checks = experiments::shape_checks(&setup);
        let mut failed = 0;
        for c in &checks {
            println!(
                "[{}] {}\n      {}",
                if c.pass { "PASS" } else { "FAIL" },
                c.claim,
                c.detail
            );
            if !c.pass {
                failed += 1;
            }
        }
        println!(
            "\n{}/{} shape checks pass",
            checks.len() - failed,
            checks.len()
        );
        std::process::exit(if failed == 0 { 0 } else { 1 });
    }

    let selected: Vec<&str> = args
        .iter()
        .filter(|a| {
            !a.starts_with("--") && Some(a.as_str()) != csv_dir.as_ref().and_then(|p| p.to_str())
        })
        .map(String::as_str)
        .collect();
    let ids: Vec<&str> = if selected.is_empty() {
        ARTIFACTS.iter().map(|(id, _)| *id).collect()
    } else {
        selected
    };

    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create CSV dir");
    }
    for id in ids {
        let Some((_, build)) = ARTIFACTS.iter().find(|(known, _)| *known == id) else {
            eprintln!("unknown artifact {id:?}; use --list");
            std::process::exit(2);
        };
        let tables = build(&setup);
        for (i, t) in tables.iter().enumerate() {
            println!("{}", t.render());
            if let Some(dir) = &csv_dir {
                let name = if tables.len() > 1 {
                    format!("{id}_{i}.csv")
                } else {
                    format!("{id}.csv")
                };
                std::fs::write(dir.join(name), t.to_csv()).expect("write CSV");
            }
        }
    }
}
