//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] <what>...
//!   what ∈ table1 table2 table3 table4 table5 table6 table7
//!          fig1 fig2 fig3
//!          ablation-kernel ablation-seed ablation-twohit
//!          step2-kernels   (writes BENCH_step2_kernels.json)
//!          step2-balance   (writes BENCH_step2_balance.json)
//!          step3-threads   (writes BENCH_step3_threads.json)
//!          serve-amortize  (writes BENCH_serve_amortize.json)
//!          trace-overhead  (writes BENCH_trace_overhead.json)
//!          fleet-scaling   (writes BENCH_fleet_scaling.json)
//!          analyzer-bench  (writes BENCH_analyzer.json)
//!          all
//! ```

#![forbid(unsafe_code)]

use psc_bench::data::build_workload;
use psc_bench::exps;
use psc_bench::ladder::{run_ladder, Components};
use psc_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wants: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if wants.is_empty() {
        eprintln!("usage: experiments [--quick] <table1..table7|fig1..fig3|ablation-*|step2-kernels|step2-balance|step3-threads|serve-amortize|trace-overhead|extension-step3|fleet-scaling|analyzer-bench|all>");
        std::process::exit(2);
    }
    let all = wants.contains(&"all");
    let want = |name: &str| all || wants.contains(&name);

    let scale = if quick { Scale::quick() } else { Scale::full() };
    eprintln!(
        "[experiments] scale: genome {} nt, banks {:?} proteins{}",
        scale.genome_nt,
        scale.bank_counts,
        if quick { " (quick)" } else { "" }
    );
    let workload = build_workload(&scale);
    eprintln!(
        "[experiments] workload built: genome {:.2} Mnt, largest bank {:.0} Kaa, {} plants",
        workload.genome_mnt(),
        workload.bank_kaa(3),
        workload.genome.plants.len()
    );

    // Which ladder components do the requested tables need?
    let comps = Components {
        baseline: want("table2") || want("table5"),
        scalar: want("table4") || want("table5"),
        rasc: want("table2")
            || want("table3")
            || want("table4")
            || want("table5")
            || want("table7")
            || want("fig3"),
        dual: want("table3"),
    };
    let rows = if comps.baseline || comps.scalar || comps.rasc || comps.dual {
        run_ladder(&scale, &workload, comps)
    } else {
        Vec::new()
    };

    println!("# Paper reproduction — Nguyen, Cornu, Lavenier (RAW/IPDPS 2009)");
    println!(
        "# scale: genome {:.2} Mnt, banks {:?} proteins; span-3 subset seed\n",
        workload.genome_mnt(),
        scale.bank_counts
    );

    if want("table1") {
        exps::table1(&workload);
    }
    if want("table2") {
        exps::table2(&rows);
    }
    if want("table3") {
        exps::table3(&rows);
    }
    if want("table4") {
        exps::table4(&rows);
    }
    if want("table5") {
        exps::table5(&rows, &workload);
    }
    if want("table6") {
        exps::table6(quick);
    }
    if want("table7") {
        exps::table7(&rows);
    }
    if want("fig1") {
        exps::fig1(&workload);
    }
    if want("fig2") {
        exps::fig2();
    }
    if want("fig3") {
        exps::fig3(&rows);
    }
    if want("ablation-kernel") {
        exps::ablation_kernel(&workload);
    }
    if want("ablation-seed") {
        exps::ablation_seed(&workload);
    }
    if want("ablation-twohit") {
        exps::ablation_twohit(&workload);
    }
    if want("ablation-hybrid") {
        exps::ablation_hybrid(&workload);
    }
    if want("ablation-masking") {
        exps::ablation_masking();
    }
    if want("step2-kernels") {
        exps::step2_kernels(&workload);
    }
    if want("step2-balance") {
        exps::step2_balance(&workload, quick);
    }
    if want("extension-step3") {
        exps::extension_step3(&workload);
    }
    if want("step3-threads") {
        exps::step3_threads(&workload);
    }
    if want("serve-amortize") {
        exps::serve_amortize(&workload);
    }
    if want("trace-overhead") {
        exps::trace_overhead(&workload);
    }
    if want("fleet-scaling") {
        exps::fleet_scaling(&workload, quick);
    }
    if want("analyzer-bench") {
        exps::analyzer_bench();
    }
}
