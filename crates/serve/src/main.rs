//! The `wsync-serve` binary: parse flags, bind, serve forever.
//!
//! ```text
//! wsync-serve --store <dir> [--addr 127.0.0.1:7077] [--max-handlers 64]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use wsync_serve::{ServeConfig, Server, DEFAULT_MAX_HANDLERS};

const USAGE: &str = "usage: wsync-serve --store <dir> [--addr HOST:PORT] [--max-handlers N]

  --store <dir>        result-store directory the daemon owns (created if
                       missing); /run and /sweep jobs both read and write it
  --addr HOST:PORT     bind address (default 127.0.0.1:7077; port 0 picks one)
  --max-handlers N     concurrent connection handlers; beyond this the
                       server answers 503 + Retry-After (default 64)";

fn main() -> ExitCode {
    let mut store: Option<PathBuf> = None;
    let mut addr = "127.0.0.1:7077".to_string();
    let mut max_handlers = DEFAULT_MAX_HANDLERS;
    let mut arguments = std::env::args().skip(1);
    while let Some(argument) = arguments.next() {
        match argument.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--store" => match arguments.next() {
                Some(dir) => store = Some(PathBuf::from(dir)),
                None => return usage_error("--store needs a directory"),
            },
            "--addr" => match arguments.next() {
                Some(a) => addr = a,
                None => return usage_error("--addr needs HOST:PORT"),
            },
            "--max-handlers" => match arguments.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => max_handlers = n,
                _ => return usage_error("--max-handlers needs a positive integer"),
            },
            other => return usage_error(&format!("unknown argument: {other}")),
        }
    }
    let Some(store_dir) = store else {
        return usage_error("--store is required");
    };
    let server = match Server::bind(ServeConfig {
        addr,
        store_dir,
        max_handlers,
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("wsync-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        // CI and scripts wait for this exact line before issuing requests.
        Ok(addr) => println!("wsync-serve listening on http://{addr}"),
        Err(e) => {
            eprintln!("wsync-serve: cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = server.run() {
        eprintln!("wsync-serve: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("wsync-serve: {message}\n{USAGE}");
    ExitCode::FAILURE
}
