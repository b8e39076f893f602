//! The `mube` binary: parse, dispatch, print.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match mube_cli::parse(&argv).and_then(mube_cli::run) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        // Lint findings are the command's product, not a malfunction:
        // print them to stdout but still fail (distinct code for scripts).
        Err(mube_cli::CliError::Lint(report)) => {
            println!("{report}");
            ExitCode::from(2)
        }
        Err(error) => {
            eprintln!("mube: {error}");
            if matches!(error, mube_cli::CliError::Usage(_)) {
                eprintln!("\n{}", mube_cli::usage());
            }
            ExitCode::FAILURE
        }
    }
}
