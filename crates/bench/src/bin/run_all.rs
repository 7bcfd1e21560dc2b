//! Regenerate every table and figure of the paper in one run, printing each
//! and writing CSVs under `results/`.
use std::path::Path;

fn main() {
    let sf = conquer_bench::base_sf();
    let runs = conquer_bench::runs();
    let out = Path::new("results");
    eprintln!("running all experiments at base sf = {sf}, {runs} runs each…\n");
    let reports = vec![
        conquer_bench::table3(),
        conquer_bench::table4(),
        conquer_bench::fig7(sf, runs),
        conquer_bench::fig8(sf, runs),
        conquer_bench::fig9(sf, runs),
        conquer_bench::fig10(sf, runs),
        conquer_bench::ablations::naive_vs_rewritten(runs),
        conquer_bench::ablations::probability_modes(sf, runs),
    ];
    for report in &reports {
        conquer_bench::print_report(report);
        match conquer_bench::write_csv(report, out) {
            Ok(path) => eprintln!("   wrote {}", path.display()),
            Err(e) => eprintln!("   could not write CSV: {e}"),
        }
    }
}
