//! The `bucketrank` command-line tool. All logic lives in the library
//! crate (`bucketrank_cli`) so it can be unit-tested without a process
//! boundary; this binary only wires in the filesystem and exit codes.

use bucketrank_cli::{detected_v3, host_verdict, run, CliError, COMPILED_V3};

fn main() {
    if let Err(e) = host_verdict(COMPILED_V3, detected_v3()) {
        eprintln!("bucketrank: {e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let read_file = |path: &str| -> Result<String, CliError> {
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path:?}: {e}")))
    };
    match run(&args, read_file) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("bucketrank: {e}");
            std::process::exit(2);
        }
    }
}
