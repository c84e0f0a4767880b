//! Writing a collective in the MSCCL++ DSL (§4.3): describe the
//! algorithm as chunk movement, let the compiler pick transports and
//! insert synchronization, and run it on the executor — including the
//! H100 NVSwitch algorithm that the paper implements in 15 lines.
//!
//! Run with: `cargo run --release --example dsl_algorithm`

use hw::{DataType, EnvKind, Machine};
use mscclpp::Setup;
use mscclpp_dsl::{algorithms, Buf, CompileOptions, Program};
use sim::Engine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- A hand-written hierarchical broadcast-and-sum, 2 nodes -------
    // Rank 0 spreads its chunks to every node leader over RDMA; leaders
    // fan out locally; everyone sums their received chunk into output.
    let n = 16;
    let mut prog = Program::new("scatter_via_leaders", n);
    for node in 0..2usize {
        let leader = node * 8;
        if leader != 0 {
            prog.copy((0, Buf::Input, node), (leader, Buf::Scratch, 0))?;
        }
    }
    for node in 0..2usize {
        let leader = node * 8;
        let (src_buf, src_idx) = if leader == 0 {
            (Buf::Input, node)
        } else {
            (Buf::Scratch, 0)
        };
        for l in 0..8usize {
            prog.copy((leader, src_buf, src_idx), (node * 8 + l, Buf::Output, 0))?;
        }
    }
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(2)));
    let mut setup = Setup::new(&mut engine);
    let inputs = setup.alloc_all(2 * 1024);
    let outputs = setup.alloc_all(1024);
    let exe = prog.compile(&mut setup, &inputs, &outputs, CompileOptions::default())?;
    engine
        .world_mut()
        .pool_mut()
        .fill_with(inputs[0], DataType::F32, |i| i as f32);
    let t = exe.launch(&mut engine)?;
    let got = engine.world().pool().to_f32_vec(outputs[12], DataType::F32);
    assert_eq!(got[0], 256.0, "node 1 received chunk 1");
    println!(
        "hand-written DSL program ({} executor instructions) ran in {}",
        exe.instr_count(),
        t.elapsed()
    );

    // --- The library's prebuilt 2PA AllReduce, compiled for 8 GPUs ----
    let prog = algorithms::two_phase_all_reduce(8)?;
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    let mut setup = Setup::new(&mut engine);
    let count = 64 << 10;
    let inputs = setup.alloc_all(count * 4);
    let outputs = setup.alloc_all(count * 4);
    let exe = prog.compile(
        &mut setup,
        &inputs,
        &outputs,
        CompileOptions {
            instances: 2,
            ..Default::default()
        },
    )?;
    for (r, &input) in inputs.iter().enumerate() {
        engine
            .world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| ((r + i) % 5) as f32);
    }
    let t = exe.launch(&mut engine)?;
    let got = engine.world().pool().to_f32_vec(outputs[0], DataType::F32);
    let want: f32 = (0..8).map(|r| ((r + 9) % 5) as f32).sum();
    assert_eq!(got[9], want);
    println!("DSL 2PA AllReduce of 256 KB: {} (verified)", t.elapsed());

    // --- The 15-line NVSwitch algorithm on H100 ------------------------
    let prog = algorithms::switch_all_reduce(8)?;
    let mut engine = Engine::new(Machine::new(EnvKind::H100.spec(1)));
    let mut setup = Setup::new(&mut engine);
    let count = 4 << 20;
    let inputs = setup.alloc_all(count * 4);
    let outputs = setup.alloc_all(count * 4);
    let exe = prog.compile(
        &mut setup,
        &inputs,
        &outputs,
        CompileOptions {
            instances: 4,
            ..Default::default()
        },
    )?;
    for (r, &input) in inputs.iter().enumerate() {
        engine
            .world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| ((r + i) % 4) as f32);
    }
    let t = exe.launch(&mut engine)?;
    let got = engine.world().pool().to_f32_vec(outputs[7], DataType::F32);
    let want: f32 = (0..8).map(|r| ((r + 2) % 4) as f32).sum();
    assert_eq!(got[2], want);
    println!(
        "NVSwitch (multimem) AllReduce of 16 MB on H100: {} = {:.0} GB/s",
        t.elapsed(),
        (count * 4) as f64 / t.elapsed().as_us() / 1e3
    );
    Ok(())
}
