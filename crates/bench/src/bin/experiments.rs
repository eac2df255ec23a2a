//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] <name>... | all
//! ```
//!
//! The names are [`psc_bench::exps::EXPERIMENTS`]; run with no argument
//! to print them. An unknown name exits 2 before anything is built.

use psc_bench::data::build_workload;
use psc_bench::exps::{select, Inputs, EXPERIMENTS};
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
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let usage = format!("usage: experiments [--quick] <{}|all>", names.join("|"));
    if wants.is_empty() {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    let selected = select(&wants).unwrap_or_else(|unknown| {
        eprintln!("experiments: unknown experiment `{unknown}`\n{usage}");
        std::process::exit(2);
    });

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
    let comps = selected.iter().fold(Components::NONE, |c, e| c.or(e.needs));
    let rows = if comps == Components::NONE {
        Vec::new()
    } else {
        run_ladder(&scale, &workload, comps)
    };

    println!("# Paper reproduction — Nguyen, Cornu, Lavenier (RAW/IPDPS 2009)");
    println!(
        "# scale: genome {:.2} Mnt, banks {:?} proteins; span-3 subset seed\n",
        workload.genome_mnt(),
        scale.bank_counts
    );

    let inputs = Inputs {
        workload: &workload,
        rows: &rows,
        quick,
    };
    for e in selected {
        (e.run)(&inputs);
    }
}
