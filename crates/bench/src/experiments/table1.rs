//! Table I — dataset statistics: File#, Rule#, Vocabulary Size.
//!
//! The paper's corpora are real-world datasets (Yelp COVID-19, NSFRAA,
//! two Wikipedia dumps); ours are the synthetic equivalents from
//! `ntadoc-datagen`, so absolute counts are smaller, but the shape —
//! file-count ordering (B ≫ D > C > A), rule and vocabulary growth with
//! corpus size — matches.

use crate::{geomean, Emitter, Harness};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    println!("Table I — datasets (scale {})", h.scale());
    println!(
        "{:>8} {:>10} {:>12} {:>16} {:>14} {:>12}",
        "Dataset", "File#", "Rule#", "Vocabulary Size", "Words", "Compression"
    );
    let mut ratios = Vec::new();
    for spec in h.specs() {
        let comp = h.dataset(&spec);
        let stats = comp.grammar.stats();
        println!(
            "{:>8} {:>10} {:>12} {:>16} {:>14} {:>11.2}x",
            spec.name,
            comp.file_count(),
            stats.rule_count,
            stats.vocabulary,
            stats.expanded_words,
            comp.grammar.compression_ratio(),
        );
        em.row([
            ("dataset", Json::from(spec.name)),
            ("files", Json::U64(comp.file_count() as u64)),
            ("rules", Json::U64(stats.rule_count as u64)),
            ("vocabulary", Json::U64(stats.vocabulary as u64)),
            ("words", Json::U64(stats.expanded_words)),
            ("compression_ratio", Json::F64(comp.grammar.compression_ratio())),
        ]);
        ratios.push(comp.grammar.compression_ratio());
    }
    em.headline("compression_ratio_geomean", geomean(&ratios));
    println!("\npaper (Table I): A: 1 file / 36,882 rules / 240,552 vocab;");
    println!("                 B: 134,631 / 2,771,880 / 1,864,902;");
    println!("                 C: 4 / 2,095,573 / 6,370,437;  D: 109 / 57,394,616 / 99,239,057");
}
