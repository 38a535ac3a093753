//! The paper's dine.com scenario: fielded restaurant search over a
//! synthetic catalog. Each preference attribute induces a partial ranking
//! (few-valued or user-coarsened), and MEDRANK aggregates them reading as
//! few index entries as the instance allows.
//!
//! Run with: `cargo run --example restaurant_search`

use bucketrank::access::db::AttrValue;
use bucketrank::access::query::PreferenceQuery;
use bucketrank::workloads::datasets::{restaurant_query_specs, restaurants};
use bucketrank::workloads::rng::Pcg32;
use bucketrank::workloads::rng::SeedableRng;

fn main() {
    let mut rng = Pcg32::seed_from_u64(2004);
    let n = 5000;
    let table = restaurants(&mut rng, n);

    let specs = restaurant_query_specs();
    println!("catalog: {n} restaurants");
    println!("preferences:");
    for s in &specs {
        println!("  - {:?}", s);
    }

    let query = PreferenceQuery::new(specs).with_k(5);
    let result = query.run(&table).unwrap();

    println!("\nper-attribute partial rankings (bucket counts over {n} rows):");
    for (spec, ranking) in query.specs().iter().zip(&result.rankings) {
        println!(
            "  {:>10}: {} buckets (largest {})",
            spec.attribute,
            ranking.num_buckets(),
            ranking.buckets().iter().map(<[u32]>::len).max().unwrap_or(0),
        );
    }

    println!("\ntop-5 restaurants by median rank:");
    for (rank, &id) in result.top.iter().enumerate() {
        let cuisine = match table.value(id as usize, "cuisine") {
            Some(AttrValue::Text(s)) => s.clone(),
            _ => unreachable!("schema declares cuisine as text"),
        };
        let distance = match table.value(id as usize, "distance") {
            Some(&AttrValue::Float(d)) => d,
            _ => unreachable!(),
        };
        let price = match table.value(id as usize, "price") {
            Some(&AttrValue::Int(p)) => p,
            _ => unreachable!(),
        };
        let stars = match table.value(id as usize, "stars") {
            Some(&AttrValue::Int(s)) => s,
            _ => unreachable!(),
        };
        println!(
            "  #{:<2} record {:>5}  {:>8}  {:>5.1} mi  {}  {}",
            rank + 1,
            id,
            cuisine,
            distance,
            "$".repeat(price as usize),
            "*".repeat(stars as usize),
        );
    }

    let total = result.stats.total_accesses();
    let full_scan = (query.specs().len() * n) as u64;
    println!("\naccess cost (sorted accesses):");
    for (spec, depth) in query.specs().iter().zip(&result.stats.sorted_depth) {
        println!("  {:>10}: read {depth} of {n} entries", spec.attribute);
    }
    println!(
        "  total {total} vs full-scan {full_scan} ({:.1}% of a Borda-style scan)",
        100.0 * total as f64 / full_scan as f64
    );
}
