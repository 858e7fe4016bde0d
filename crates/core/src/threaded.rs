//! Thread-per-node split training: the round of
//! [`crate::trainer::SplitTrainer`], but with every platform and the
//! server running concurrently on its own OS thread, synchronised only
//! through the transport — shaped like a real deployment.
//!
//! Only the exchange is concurrent. The loop around it (learning-rate
//! schedule, evaluation cadence, one recorded history row per round), the
//! compute charge and the `L1` sync are [`SplitTrainer`]'s own, run
//! between rounds on the calling thread.
//!
//! [`SplitTrainer`]: crate::SplitTrainer

use medsplit_data::InMemoryDataset;
use medsplit_nn::Architecture;
use medsplit_simnet::{recv_timeout_default, Envelope, NetStats, NodeId, Transport};

use crate::config::{Scheduling, SplitConfig};
use crate::error::{Result, SplitError};
use crate::history::TrainingHistory;
use crate::platform::Platform;
use crate::round::{Actors, RoundDriver};
use crate::server::SplitServer;
use crate::trainer::{close_round, fresh_actors};

/// The aggregate round with one scoped thread per node.
struct ThreadedTrainer<'t, T: Transport> {
    actors: Actors,
    transport: &'t T,
}

/// Blocks until the next message for `node` arrives, or the shared
/// receive timeout passes.
fn recv<T: Transport>(transport: &T, node: NodeId) -> Result<Envelope> {
    Ok(transport.recv_timeout(node, recv_timeout_default())?)
}

/// The server's half of one round: steps 2 and 4, each over all `k`
/// platforms' messages in whatever order they arrive (the server orders
/// its batch by platform id).
fn server_steps<T: Transport>(server: &mut SplitServer, k: usize, transport: &T) -> Result<()> {
    for step in [SplitServer::aggregate_forward, SplitServer::aggregate_backward] {
        let inbox = (0..k)
            .map(|_| recv(transport, NodeId::Server))
            .collect::<Result<Vec<_>>>()?;
        for env in step(server, &inbox)? {
            transport.send(env)?;
        }
    }
    Ok(())
}

/// One platform's half of one round: steps 1, 3 and 5. Returns its loss.
fn platform_steps<T: Transport>(platform: &mut Platform, round: u64, transport: &T) -> Result<f32> {
    transport.send(platform.start_round(round)?)?;
    let (grads, loss) = platform.handle_logits(&recv(transport, platform.node())?)?;
    transport.send(grads)?;
    platform.handle_cut_grads(&recv(transport, platform.node())?)?;
    Ok(loss)
}

impl<T: Transport> RoundDriver for ThreadedTrainer<'_, T> {
    fn method(&self) -> &'static str {
        self.actors.method
    }

    fn full_round(&self) -> usize {
        self.actors.platforms.len()
    }

    fn set_lr(&mut self, lr: f32) {
        self.actors.set_lr(lr);
    }

    fn stats(&self) -> &NetStats {
        self.transport.stats()
    }

    fn round(&mut self, round: u64) -> Result<(f32, usize)> {
        let transport = self.transport;
        let Actors {
            platforms, server, ..
        } = &mut self.actors;
        let k = platforms.len();
        let losses = std::thread::scope(|scope| {
            let server = scope.spawn(move || server_steps(server, k, transport));
            let platforms: Vec<_> = platforms
                .iter_mut()
                .map(|p| scope.spawn(move || platform_steps(p, round, transport)))
                .collect();
            let losses: Vec<Result<f32>> = platforms
                .into_iter()
                .map(|h| h.join().expect("platform thread panicked"))
                .collect();
            server.join().expect("server thread panicked")?;
            losses.into_iter().collect::<Result<Vec<f32>>>()
        })?;
        close_round(&mut self.actors, transport, round)?;
        Ok((losses.iter().sum::<f32>() / k as f32, k))
    }

    fn evaluate(&mut self) -> Result<f32> {
        self.actors.evaluate(|_| true)
    }
}

/// Trains with one OS thread per node and returns the history.
///
/// The actors, arithmetic and accounting are [`SplitTrainer`]'s: the
/// server concatenates platform batches in platform-id order whatever
/// order they arrive in, and every clock advance is a maximum or a sum
/// fixed by the protocol, so the history — losses, per-round bytes and
/// simulated clocks, accuracies, the final statistics — equals a
/// sequential run's bit for bit. Only the method name and wall times
/// differ.
///
/// [`SplitTrainer`]: crate::SplitTrainer
///
/// # Errors
///
/// Returns configuration errors for an invalid config, a used transport
/// or [`Scheduling::RoundRobin`] (a threaded server takes platforms in
/// arrival order, not in turn), and propagates any node's protocol error.
pub fn train_threaded<T: Transport>(
    arch: &Architecture,
    config: SplitConfig,
    shards: Vec<InMemoryDataset>,
    test: InMemoryDataset,
    transport: &T,
) -> Result<TrainingHistory> {
    if config.scheduling != Scheduling::Aggregate {
        return Err(SplitError::Config(
            "threaded mode implements Aggregate scheduling".into(),
        ));
    }
    let stats = transport.stats();
    let actors = fresh_actors("split_threaded", arch, config.clone(), shards, test, stats)?;
    ThreadedTrainer { actors, transport }.run(&config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ComputeModel, L1Sync};
    use crate::round::fixtures::{self, arch, replay_key, setup};
    use crate::trainer::SplitTrainer;
    use medsplit_simnet::{MemoryTransport, StarTopology};

    #[test]
    fn threaded_run_learns() {
        let (shards, test) = setup(3);
        let transport = MemoryTransport::new(StarTopology::new(3));
        let history = train_threaded(&arch(), fixtures::config(40), shards, test, &transport).unwrap();
        assert!(
            history.final_accuracy > 0.6,
            "accuracy {}",
            history.final_accuracy
        );
        assert_eq!(history.records.len(), 40);
    }

    #[test]
    fn threaded_matches_sequential_bytes_exactly() {
        // The whole history, bit for bit, under every L1 sync, with
        // mid-run evaluations and the compute model charging the clocks.
        for l1_sync in [
            L1Sync::CommonInit,
            L1Sync::PeriodicAverage { every: 2 },
            L1Sync::CyclicShare { every: 3 },
        ] {
            let config = SplitConfig {
                l1_sync,
                eval_every: 3,
                compute: ComputeModel::hospital_default(),
                ..fixtures::config(7)
            };
            let (shards, test) = setup(3);
            let t1 = MemoryTransport::new(StarTopology::new(3));
            let threaded =
                train_threaded(&arch(), config.clone(), shards.clone(), test.clone(), &t1).unwrap();

            let t2 = MemoryTransport::new(StarTopology::new(3));
            let sequential = SplitTrainer::new(&arch(), config, shards, test, &t2)
                .unwrap()
                .run()
                .unwrap();

            assert_eq!(threaded.method, "split_threaded");
            assert_eq!(replay_key(&threaded), replay_key(&sequential), "{l1_sync:?}");
            assert_eq!(
                threaded.final_accuracy.to_bits(),
                sequential.final_accuracy.to_bits(),
                "{l1_sync:?}"
            );
            assert_eq!(threaded.stats, sequential.stats, "{l1_sync:?}");
        }
    }

    #[test]
    fn unsupported_modes_rejected() {
        let (shards, test) = setup(2);
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut cfg = fixtures::config(2);
        cfg.scheduling = Scheduling::RoundRobin;
        assert!(matches!(
            train_threaded(&arch(), cfg, shards, test, &transport),
            Err(SplitError::Config(_))
        ));
    }
}
