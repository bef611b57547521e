//! The untraced binary: end-to-end metrics, `run`, `compare`.

fn main() {
    gretel_benchmark::cli::main(false)
}
