//! `experiments [NAME…] [--seed N] [--store-dir DIR]` — see `gretel_bench`.

fn main() {
    if let Err(why) = gretel_bench::main(std::env::args().skip(1)) {
        eprintln!("experiments: {why}");
        std::process::exit(2);
    }
}
