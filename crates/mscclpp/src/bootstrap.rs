//! Host-side bootstrap: metadata exchange between ranks before any GPU
//! communication (§4.1).
//!
//! The paper's bootstrap consists of four virtual methods — `send`,
//! `recv`, `allGather`, and `barrier` — with a default implementation over
//! POSIX sockets. In this reproduction all ranks live in one address
//! space, so the default [`MemBootstrap`] exchanges metadata through a
//! shared in-memory store. Because host setup code drives ranks
//! sequentially (not on real threads), the collective methods are split
//! into a *contribute* phase and a *collect* phase: every rank must
//! contribute before any rank collects, mirroring how a socket
//! implementation would block.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use hw::Rank;

use crate::error::{Error, Result};

/// The bootstrap interface (paper §4.1).
///
/// Implementations exchange opaque metadata blobs between host processes.
/// Users can substitute their own transport (the paper mentions MPI and
/// `torch.distributed`); the simulation default is [`MemBootstrap`].
pub trait Bootstrap {
    /// This process's rank.
    fn rank(&self) -> Rank;
    /// Total number of ranks.
    fn world_size(&self) -> usize;
    /// Sends a tagged metadata blob to `peer`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Bootstrap`] if `peer` is out of range.
    fn send(&mut self, peer: Rank, tag: u64, payload: Vec<u8>) -> Result<()>;
    /// Receives the blob tagged `tag` previously sent by `peer`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Bootstrap`] if nothing matching has been sent yet
    /// (the sequential-host equivalent of blocking).
    fn recv(&mut self, peer: Rank, tag: u64) -> Result<Vec<u8>>;
    /// Contributes this rank's blob to the current all-gather round.
    fn all_gather_contribute(&mut self, payload: Vec<u8>) -> Result<()>;
    /// Collects the blobs of all ranks for the current round.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Bootstrap`] if some rank has not contributed yet.
    fn all_gather_collect(&mut self) -> Result<Vec<Vec<u8>>>;
    /// Arrives at the current barrier round.
    fn barrier_arrive(&mut self) -> Result<()>;
    /// Whether every rank has arrived at the current barrier round.
    fn barrier_done(&self) -> bool;
}

#[derive(Debug, Default)]
struct Store {
    /// `(src, dst, tag)` → payload queue (FIFO per key).
    mailboxes: HashMap<(usize, usize, u64), Vec<Vec<u8>>>,
    /// Per-round all-gather contributions.
    gather: Vec<HashMap<usize, Vec<u8>>>,
    /// Per-rank current gather round (index into `gather`).
    gather_round: Vec<usize>,
    /// Barrier arrival count and per-rank round.
    barrier_arrivals: Vec<usize>,
    barrier_round: Vec<usize>,
    /// Global ranks participating in the current epoch, sorted. Initially
    /// the full world; [`BootstrapStore::reconvene`] narrows it to the
    /// survivors after a rank failure.
    members: Vec<usize>,
}

impl Store {
    fn is_member(&self, rank: usize) -> bool {
        self.members.binary_search(&rank).is_ok()
    }
}

/// A rendezvous shared by all [`MemBootstrap`] handles of one job.
#[derive(Debug, Clone, Default)]
pub struct BootstrapStore {
    inner: Rc<RefCell<Store>>,
}

impl BootstrapStore {
    /// Creates an empty rendezvous store.
    pub fn new() -> BootstrapStore {
        BootstrapStore::default()
    }

    /// Creates the per-rank bootstrap handles for a world of `n` ranks.
    pub fn handles(&self, n: usize) -> Vec<MemBootstrap> {
        {
            let mut s = self.inner.borrow_mut();
            s.gather_round = vec![0; n];
            s.barrier_round = vec![0; n];
            s.members = (0..n).collect();
        }
        (0..n)
            .map(|r| MemBootstrap {
                rank: Rank(r),
                store: self.inner.clone(),
            })
            .collect()
    }

    /// Re-forms the rendezvous for the surviving subset after a rank
    /// failure: every pending message, all-gather round, and barrier from
    /// the dead epoch is discarded, and the collective phases thereafter
    /// complete when every *survivor* has participated. Handles are
    /// returned indexed by **global** rank (the full pre-failure world
    /// size), so setup code keyed by rank keeps working; any use of — or
    /// send to — a non-survivor fails with [`Error::Bootstrap`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Bootstrap`] if `survivors` is empty or contains a
    /// duplicate.
    pub fn reconvene(&self, survivors: &[Rank]) -> Result<Vec<MemBootstrap>> {
        if survivors.is_empty() {
            return Err(Error::Bootstrap("reconvene: survivor set is empty".into()));
        }
        let mut members: Vec<usize> = survivors.iter().map(|r| r.0).collect();
        members.sort_unstable();
        if members.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::Bootstrap(
                "reconvene: duplicate rank in survivor set".into(),
            ));
        }
        let world = {
            let mut s = self.inner.borrow_mut();
            let world = s.gather_round.len().max(members[members.len() - 1] + 1);
            s.mailboxes.clear();
            s.gather.clear();
            s.barrier_arrivals.clear();
            s.gather_round = vec![0; world];
            s.barrier_round = vec![0; world];
            s.members = members;
            world
        };
        Ok((0..world)
            .map(|r| MemBootstrap {
                rank: Rank(r),
                store: self.inner.clone(),
            })
            .collect())
    }
}

/// The default in-memory bootstrap (stands in for the paper's POSIX
/// socket implementation).
#[derive(Debug, Clone)]
pub struct MemBootstrap {
    rank: Rank,
    store: Rc<RefCell<Store>>,
}

impl MemBootstrap {
    /// Fails unless both this handle's rank and `peer` are members of the
    /// current epoch (a reconvened store excludes dead ranks).
    fn check_members(&self, peer: Option<Rank>) -> Result<()> {
        let s = self.store.borrow();
        if !s.is_member(self.rank.0) {
            return Err(Error::Bootstrap(format!(
                "{} is not in the current epoch",
                self.rank
            )));
        }
        if let Some(p) = peer {
            if !s.is_member(p.0) {
                return Err(Error::Bootstrap(format!("{p} is not in the current epoch")));
            }
        }
        Ok(())
    }
}

impl Bootstrap for MemBootstrap {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.store.borrow().members.len()
    }

    fn send(&mut self, peer: Rank, tag: u64, payload: Vec<u8>) -> Result<()> {
        self.check_members(Some(peer))?;
        self.store
            .borrow_mut()
            .mailboxes
            .entry((self.rank.0, peer.0, tag))
            .or_default()
            .push(payload);
        Ok(())
    }

    fn recv(&mut self, peer: Rank, tag: u64) -> Result<Vec<u8>> {
        self.check_members(Some(peer))?;
        let mut s = self.store.borrow_mut();
        let q = s
            .mailboxes
            .get_mut(&(peer.0, self.rank.0, tag))
            .filter(|q| !q.is_empty())
            .ok_or_else(|| {
                Error::Bootstrap(format!(
                    "recv from {peer} tag {tag}: nothing sent yet (send before recv)"
                ))
            })?;
        Ok(q.remove(0))
    }

    fn all_gather_contribute(&mut self, payload: Vec<u8>) -> Result<()> {
        self.check_members(None)?;
        let mut s = self.store.borrow_mut();
        let round = s.gather_round[self.rank.0];
        if s.gather.len() <= round {
            s.gather.resize_with(round + 1, HashMap::new);
        }
        if s.gather[round].insert(self.rank.0, payload).is_some() {
            return Err(Error::Bootstrap(format!(
                "{} contributed twice to all-gather round {round}",
                self.rank
            )));
        }
        Ok(())
    }

    fn all_gather_collect(&mut self) -> Result<Vec<Vec<u8>>> {
        self.check_members(None)?;
        let mut s = self.store.borrow_mut();
        let round = s.gather_round[self.rank.0];
        let complete = s
            .gather
            .get(round)
            .map(|m| m.len() == s.members.len())
            .unwrap_or(false);
        if !complete {
            return Err(Error::Bootstrap(format!(
                "all-gather round {round} incomplete: every member must contribute first"
            )));
        }
        s.gather_round[self.rank.0] += 1;
        let m = &s.gather[round];
        Ok(s.members.iter().map(|r| m[r].clone()).collect())
    }

    fn barrier_arrive(&mut self) -> Result<()> {
        self.check_members(None)?;
        let mut s = self.store.borrow_mut();
        let round = s.barrier_round[self.rank.0];
        if s.barrier_arrivals.len() <= round {
            s.barrier_arrivals.resize(round + 1, 0);
        }
        s.barrier_arrivals[round] += 1;
        s.barrier_round[self.rank.0] += 1;
        Ok(())
    }

    fn barrier_done(&self) -> bool {
        let s = self.store.borrow();
        let round = s.barrier_round[self.rank.0];
        // The rank has already arrived (round was advanced); the previous
        // round is done when all members arrived at it.
        round > 0 && s.barrier_arrivals.get(round - 1) == Some(&s.members.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_then_recv_round_trips() {
        let store = BootstrapStore::new();
        let mut h = store.handles(2);
        h[0].send(Rank(1), 7, vec![1, 2, 3]).unwrap();
        assert_eq!(h[1].recv(Rank(0), 7).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn recv_before_send_errors() {
        let store = BootstrapStore::new();
        let mut h = store.handles(2);
        let err = h[1].recv(Rank(0), 0).unwrap_err();
        assert!(matches!(err, Error::Bootstrap(_)));
    }

    #[test]
    fn all_gather_two_phase() {
        let store = BootstrapStore::new();
        let mut h = store.handles(3);
        // Collect before everyone contributed fails.
        h[0].all_gather_contribute(vec![0]).unwrap();
        assert!(h[0].all_gather_collect().is_err());
        h[1].all_gather_contribute(vec![1]).unwrap();
        h[2].all_gather_contribute(vec![2]).unwrap();
        for handle in &mut h {
            let got = handle.all_gather_collect().unwrap();
            assert_eq!(got, vec![vec![0], vec![1], vec![2]]);
        }
    }

    #[test]
    fn all_gather_rounds_are_independent() {
        let store = BootstrapStore::new();
        let mut h = store.handles(2);
        for round in 0..3u8 {
            h[0].all_gather_contribute(vec![round, 0]).unwrap();
            h[1].all_gather_contribute(vec![round, 1]).unwrap();
            assert_eq!(
                h[0].all_gather_collect().unwrap(),
                vec![vec![round, 0], vec![round, 1]]
            );
            assert_eq!(
                h[1].all_gather_collect().unwrap(),
                vec![vec![round, 0], vec![round, 1]]
            );
        }
    }

    #[test]
    fn barrier_completes_when_all_arrive() {
        let store = BootstrapStore::new();
        let mut h = store.handles(2);
        h[0].barrier_arrive().unwrap();
        assert!(!h[0].barrier_done());
        h[1].barrier_arrive().unwrap();
        assert!(h[0].barrier_done());
        assert!(h[1].barrier_done());
    }

    #[test]
    fn double_contribute_rejected() {
        let store = BootstrapStore::new();
        let mut h = store.handles(2);
        h[0].all_gather_contribute(vec![]).unwrap();
        assert!(h[0].all_gather_contribute(vec![]).is_err());
    }

    #[test]
    fn send_out_of_range_rejected() {
        let store = BootstrapStore::new();
        let mut h = store.handles(2);
        assert!(h[0].send(Rank(5), 0, vec![]).is_err());
    }

    #[test]
    fn reconvene_discards_dead_epoch_and_excludes_dead_ranks() {
        let store = BootstrapStore::new();
        let mut h = store.handles(4);
        // In-flight state from the epoch that is about to die.
        h[0].send(Rank(2), 9, vec![1]).unwrap();
        h[1].all_gather_contribute(vec![7]).unwrap();
        // Rank 2 dies; the survivors reconvene.
        let mut h = store
            .reconvene(&[Rank(0), Rank(1), Rank(3)])
            .expect("reconvene");
        assert_eq!(h.len(), 4, "handles stay indexed by global rank");
        assert_eq!(h[0].world_size(), 3);
        // Stale mail and half-finished gathers are gone.
        assert!(h[0].recv(Rank(2), 9).is_err());
        // Dead ranks are unusable, as source or destination.
        assert!(h[2].send(Rank(0), 0, vec![]).is_err());
        assert!(h[0].send(Rank(2), 0, vec![]).is_err());
        assert!(h[2].all_gather_contribute(vec![]).is_err());
        // Survivor collectives complete at survivor count.
        h[0].all_gather_contribute(vec![0]).unwrap();
        h[1].all_gather_contribute(vec![1]).unwrap();
        h[3].all_gather_contribute(vec![3]).unwrap();
        assert_eq!(
            h[0].all_gather_collect().unwrap(),
            vec![vec![0], vec![1], vec![3]]
        );
        h[0].barrier_arrive().unwrap();
        h[1].barrier_arrive().unwrap();
        assert!(!h[0].barrier_done());
        h[3].barrier_arrive().unwrap();
        assert!(h[0].barrier_done());
    }

    #[test]
    fn reconvene_rejects_empty_and_duplicate_survivor_sets() {
        let store = BootstrapStore::new();
        let _ = store.handles(4);
        assert!(store.reconvene(&[]).is_err());
        assert!(store.reconvene(&[Rank(1), Rank(1)]).is_err());
    }
}
