//! The traced binary: the same passes with spans recorded from outside the
//! layers, a stage registry handed to the pipeline and every allocation
//! counted. Its throughput is never reported as an end-to-end number.

use gretel_benchmark::alloc::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() {
    gretel_benchmark::cli::main(true)
}
