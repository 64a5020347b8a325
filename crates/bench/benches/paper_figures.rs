//! Regeneration harness for the paper's Figures 1–6 and the Theorem 4.1 verdict.
//!
//! The PCL paper's "evaluation" is its adversarial construction: Figures 1/2 define
//! the critical steps `s1`/`s2`, Figures 3/4 the executions β/β′, and Figures 5/6
//! tabulate what every transaction reads there.  Each benchmark below rebuilds
//! exactly one of those artifacts against the OF-DAP candidate (the algorithm the
//! theorem is aimed at) and prints the regenerated figure once, so running
//! `cargo bench --bench paper_figures` reproduces the paper's tables/figures and
//! reports how long the mechanized construction takes.
//!
//! Experiment ids (see README.md / BENCH_tradeoffs.json): FIG1–FIG6, THM.

use bench::harness::{bench, black_box};
use pcl_theorem::figures;
use pcl_theorem::{theorem_table, Construction};
use tm_algorithms::OfDapCandidate;

const SAMPLES: usize = 10;

fn print_figures() {
    let algo = OfDapCandidate::new();
    let report = Construction::new(&algo).build();
    println!("\n================ regenerated paper figures (of-dap-candidate) ================");
    println!("{}", figures::all_figures(&report));
    let (beta_dev, beta_prime_dev) = figures::t7_deviations(&report);
    println!("\nWAC-forced vs observed T7 reads (β):  {beta_dev:?}");
    println!("WAC-forced vs observed T7 reads (β′): {beta_prime_dev:?}");
    println!("\n================ Theorem 4.1 verdict table ================");
    for verdict in theorem_table() {
        println!("{}", verdict.summary());
    }
    println!("==============================================================================\n");
}

fn bench_fig1_fig2_critical_steps() {
    bench("fig1+fig2/critical-step-search/of-dap-candidate", SAMPLES, || {
        let algo = OfDapCandidate::new();
        let construction = Construction::new(&algo);
        let mut obstacles = Vec::new();
        let s1 = construction
            .find_critical_step(
                &[],
                pcl_theorem::transactions::tx::T1,
                pcl_theorem::transactions::tx::T3,
                "b1",
                &mut obstacles,
            )
            .expect("s1 exists");
        black_box(s1.prefix_steps)
    });
}

fn bench_fig3_fig4_beta_assembly() {
    bench("fig3+fig4/assemble-beta-and-beta-prime/of-dap-candidate", SAMPLES, || {
        let algo = OfDapCandidate::new();
        let report = Construction::new(&algo).build();
        assert!(report.completed());
        black_box(report.p7_indistinguishable)
    });
}

fn bench_fig5_fig6_read_tables() {
    let algo = OfDapCandidate::new();
    let report = Construction::new(&algo).build();
    bench("fig5+fig6/render-read-tables", SAMPLES, || {
        let five = figures::figure5(&report);
        let six = figures::figure6(&report);
        black_box((five.len(), six.len()))
    });
}

fn bench_theorem_verdict() {
    bench("thm/verdict/of-dap-candidate", SAMPLES, || {
        let verdict = pcl_theorem::evaluate_algorithm(&OfDapCandidate::new());
        assert!(verdict.respects_pcl_theorem());
        black_box(verdict.properties_held())
    });
}

fn main() {
    print_figures();
    bench_fig1_fig2_critical_steps();
    bench_fig3_fig4_beta_assembly();
    bench_fig5_fig6_read_tables();
    bench_theorem_verdict();
}
