//! Run the extension ablations (see `conquer_bench::ablations`).
fn main() {
    let sf = conquer_bench::base_sf();
    let runs = conquer_bench::runs();
    conquer_bench::print_report(&conquer_bench::ablations::naive_vs_rewritten(runs));
    conquer_bench::print_report(&conquer_bench::ablations::probability_modes(sf, runs));
}
