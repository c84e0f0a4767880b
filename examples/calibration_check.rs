//! Calibration snapshot: the three stacks side by side on A100-40G at
//! four anchor sizes, with MSCCL++'s speedup factors — a quick check
//! that the reproduction tracks the paper's §5.1 gain breakdown
//! (1 KB: NCCL ≈ 4x, MSCCL ≈ 1.9x slower than MSCCL++).
//!
//! Run with: `cargo run --release --example calibration_check`

use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
use mscclpp::Setup;
use sim::Engine;

fn main() {
    for count in [256usize, 8192, 262144, 16 << 20] {
        let bytes = count * 4;
        // NCCL
        let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        let mut s = Setup::new(&mut e);
        let nccl = ncclsim::NcclComm::new(&mut s, ncclsim::NcclConfig::nccl());
        let bufs = s.alloc_all(bytes);
        let mut best_nccl = f64::MAX;
        for c in ncclsim::tuning_candidates(1) {
            for &buf in &bufs {
                e.world_mut()
                    .pool_mut()
                    .fill_with(buf, DataType::F32, |_| 1.0);
            }
            let t = nccl
                .all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum, c)
                .unwrap();
            best_nccl = best_nccl.min(t.elapsed().as_us());
        }
        // MSCCL
        let mut e2 = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        let mut s2 = Setup::new(&mut e2);
        let ms = msccl::MscclComm::new(&mut s2, msccl::MscclConfig::default());
        let bufs2 = s2.alloc_all(bytes);
        let t2 = ms
            .all_reduce(
                &mut e2,
                &bufs2,
                &bufs2,
                count,
                DataType::F32,
                ReduceOp::Sum,
                None,
            )
            .unwrap();
        // MSCCL++
        let mut e3 = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        hw::wire(&mut e3);
        let bufs3: Vec<_> = (0..8)
            .map(|r| e3.world_mut().pool_mut().alloc(Rank(r), bytes))
            .collect();
        let comm = collective::CollComm::new();
        let t3 = comm
            .all_reduce(&mut e3, &bufs3, &bufs3, count, DataType::F32, ReduceOp::Sum)
            .unwrap();
        println!("{:>10} B  NCCL {:>9.2}us  MSCCL {:>9.2}us  MSCCL++ {:>9.2}us  | speedup vs NCCL {:.2}x vs MSCCL {:.2}x",
            bytes, best_nccl, t2.elapsed().as_us(), t3.elapsed().as_us(),
            best_nccl/t3.elapsed().as_us(), t2.elapsed().as_us()/t3.elapsed().as_us());
    }
}
