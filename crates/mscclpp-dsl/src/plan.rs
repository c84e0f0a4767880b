//! Plan files: a line-oriented textual serialization of DSL programs.
//!
//! The MSCCL ecosystem exchanges collective algorithms as plan files
//! (msccl-tools XML/JSON) so that schedulers can pick an algorithm per
//! message size without recompiling. This module provides the analogous
//! facility: [`Program::to_plan_text`] and [`Program::from_plan_text`]
//! round-trip a program through a human-diffable format:
//!
//! ```text
//! # mscclpp-dsl plan v1
//! name allreduce_2pa
//! world 8
//! copy 0 in 3 -> 3 scratch 0
//! reduce 3 scratch 0 -> 3 out 3
//! mmreduce in 2 -> 2 out 2
//! mmbcast 2 out 2 -> out 2
//! ```

use crate::program::{Buf, ChunkRef, DslError, Op, Program};

fn buf_token(b: Buf) -> &'static str {
    match b {
        Buf::Input => "in",
        Buf::Output => "out",
        Buf::Scratch => "scratch",
    }
}

fn parse_buf(tok: &str) -> Result<Buf, DslError> {
    match tok {
        "in" => Ok(Buf::Input),
        "out" => Ok(Buf::Output),
        "scratch" => Ok(Buf::Scratch),
        other => Err(DslError::Compile(format!(
            "plan parse: unknown buffer kind {other:?}"
        ))),
    }
}

fn parse_usize(tok: &str, what: &str) -> Result<usize, DslError> {
    tok.parse()
        .map_err(|_| DslError::Compile(format!("plan parse: bad {what} {tok:?}")))
}

/// Parses `rank buf index` starting at `toks[at]`.
fn parse_chunk(toks: &[&str], at: usize) -> Result<ChunkRef, DslError> {
    if toks.len() < at + 3 {
        return Err(DslError::Compile("plan parse: truncated chunk".into()));
    }
    Ok(ChunkRef {
        rank: parse_usize(toks[at], "rank")?,
        buf: parse_buf(toks[at + 1])?,
        index: parse_usize(toks[at + 2], "chunk index")?,
    })
}

impl Program {
    /// Serializes the program to the plan-file text format.
    pub fn to_plan_text(&self) -> String {
        let mut out = String::from("# mscclpp-dsl plan v1\n");
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!("world {}\n", self.world));
        for op in &self.ops {
            match *op {
                Op::Copy { src, dst } => out.push_str(&format!(
                    "copy {} {} {} -> {} {} {}\n",
                    src.rank,
                    buf_token(src.buf),
                    src.index,
                    dst.rank,
                    buf_token(dst.buf),
                    dst.index
                )),
                Op::Reduce { src, dst } => out.push_str(&format!(
                    "reduce {} {} {} -> {} {} {}\n",
                    src.rank,
                    buf_token(src.buf),
                    src.index,
                    dst.rank,
                    buf_token(dst.buf),
                    dst.index
                )),
                Op::MultimemReduce { group, dst } => out.push_str(&format!(
                    "mmreduce {} {} -> {} {} {}\n",
                    buf_token(group.0),
                    group.1,
                    dst.rank,
                    buf_token(dst.buf),
                    dst.index
                )),
                Op::MultimemBroadcast { src, group } => out.push_str(&format!(
                    "mmbcast {} {} {} -> {} {}\n",
                    src.rank,
                    buf_token(src.buf),
                    src.index,
                    buf_token(group.0),
                    group.1
                )),
            }
        }
        out
    }

    /// Parses a plan-file back into a program.
    ///
    /// # Errors
    ///
    /// Returns [`DslError::Compile`] for malformed lines and
    /// [`DslError::BadChunk`] for out-of-range ranks.
    pub fn from_plan_text(text: &str) -> Result<Program, DslError> {
        let mut name = String::from("<unnamed plan>");
        let mut world: Option<usize> = None;
        let mut prog: Option<Program> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            let err = |m: &str| DslError::Compile(format!("plan parse: line {}: {m}", lineno + 1));
            match toks[0] {
                "name" => {
                    name = toks.get(1..).map(|t| t.join(" ")).unwrap_or_default();
                }
                "world" => {
                    let w = parse_usize(toks.get(1).ok_or_else(|| err("missing world"))?, "world")?;
                    world = Some(w);
                    prog = Some(Program::new(name.clone(), w));
                }
                verb @ ("copy" | "reduce") => {
                    let p = prog
                        .as_mut()
                        .ok_or_else(|| err("op before `world` header"))?;
                    if toks.get(4) != Some(&"->") {
                        return Err(err("expected `->`"));
                    }
                    let src = parse_chunk(&toks, 1)?;
                    let dst = parse_chunk(&toks, 5)?;
                    if verb == "copy" {
                        p.copy(src, dst)?;
                    } else {
                        p.reduce(src, dst)?;
                    }
                }
                "mmreduce" => {
                    let p = prog
                        .as_mut()
                        .ok_or_else(|| err("op before `world` header"))?;
                    if toks.get(3) != Some(&"->") {
                        return Err(err("expected `->`"));
                    }
                    let group = (parse_buf(toks[1])?, parse_usize(toks[2], "group index")?);
                    let dst = parse_chunk(&toks, 4)?;
                    p.multimem_reduce(group, dst)?;
                }
                "mmbcast" => {
                    let p = prog
                        .as_mut()
                        .ok_or_else(|| err("op before `world` header"))?;
                    if toks.get(4) != Some(&"->") {
                        return Err(err("expected `->`"));
                    }
                    let src = parse_chunk(&toks, 1)?;
                    let gb = toks.get(5).ok_or_else(|| err("truncated group"))?;
                    let gi = toks.get(6).ok_or_else(|| err("truncated group"))?;
                    let group = (parse_buf(gb)?, parse_usize(gi, "group index")?);
                    p.multimem_broadcast(src, group)?;
                }
                other => return Err(err(&format!("unknown directive {other:?}"))),
            }
        }
        let _ = world.ok_or_else(|| DslError::Compile("plan parse: missing `world`".into()))?;
        prog.ok_or_else(|| DslError::Compile("plan parse: empty plan".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;

    #[test]
    fn plans_round_trip_every_builtin_algorithm() {
        for prog in [
            algorithms::one_phase_all_reduce(8).unwrap(),
            algorithms::two_phase_all_reduce(8).unwrap(),
            algorithms::switch_all_reduce(8).unwrap(),
            algorithms::all_pairs_all_gather(8).unwrap(),
            algorithms::ring_all_reduce(8).unwrap(),
        ] {
            let text = prog.to_plan_text();
            let back = Program::from_plan_text(&text).unwrap();
            assert_eq!(back.name(), prog.name());
            assert_eq!(back.op_count(), prog.op_count());
            assert_eq!(back.to_plan_text(), text, "{}", prog.name());
        }
    }

    #[test]
    fn malformed_plans_are_rejected_with_line_numbers() {
        let err = Program::from_plan_text("world 4\ncopy 0 in 0 1 out 0").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = Program::from_plan_text("copy 0 in 0 -> 1 out 0").unwrap_err();
        assert!(err.to_string().contains("before `world`"), "{err}");
        let err = Program::from_plan_text("world 2\nfrobnicate 1 2 3").unwrap_err();
        assert!(err.to_string().contains("unknown directive"), "{err}");
        assert!(Program::from_plan_text("# just a comment\n").is_err());
    }

    #[test]
    fn parsed_plan_compiles_and_runs() {
        use hw::{DataType, EnvKind, Machine};
        use mscclpp::Setup;
        use sim::Engine;

        let text = algorithms::two_phase_all_reduce(8).unwrap().to_plan_text();
        let prog = Program::from_plan_text(&text).unwrap();
        let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        let mut setup = Setup::new(&mut engine);
        let ins = setup.alloc_all(1024);
        let outs = setup.alloc_all(1024);
        let exe = prog
            .compile(&mut setup, &ins, &outs, Default::default())
            .unwrap();
        for &input in &ins {
            engine
                .world_mut()
                .pool_mut()
                .fill_with(input, DataType::F32, |_| 1.0);
        }
        exe.launch(&mut engine).unwrap();
        assert_eq!(
            engine.world().pool().to_f32_vec(outs[0], DataType::F32)[0],
            8.0
        );
    }
}
