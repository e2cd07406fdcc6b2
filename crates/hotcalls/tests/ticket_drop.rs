//! Regression: a dropped, never-redeemed ticket must not wedge its slot.
//!
//! Before the abandonment protocol, dropping a `Ticket` (or `MailTicket`)
//! leaked its ring slot: the responder marked the call `DONE`, nobody ever
//! redeemed it back to `EMPTY`, and the next submission to wrap onto that
//! position spun forever. The drop path now marks the slot's sequence on
//! the plane's abandon board and the next claimer (or the redeeming sweep)
//! reaps it. Each test here drops *more tickets than the plane has slots*
//! — under the old behaviour every one of them deadlocks — and then proves
//! the plane still serves sync traffic at full capacity.

use hotcalls::rt::{CallTable, HotCallServer, RingServer};
use hotcalls::{HotCallConfig, ResponderPolicy};

/// Spin-only config so a test failure is a fast spin, not a parked doze.
fn spin_config() -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep: None,
        ..HotCallConfig::patient()
    }
}

fn table() -> (CallTable<u64, u64>, u32) {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let id = table.register(|x| x.wrapping_add(7));
    (table, id)
}

const CAPACITY: usize = 4;
/// Enough abandoned calls to wrap the ring several times over.
const DROPS: usize = 4 * CAPACITY;

/// The ring-engine shapes, as `(shards, responders)`: one shared ring
/// with one responder and drained by a pool, and one shard per responder.
const SHAPES: [(usize, usize); 3] = [(1, 1), (1, 2), (2, 2)];

fn spawn_shape((shards, responders): (usize, usize)) -> (RingServer<u64, u64>, u32) {
    let (table, id) = table();
    let server = RingServer::spawn_sharded(
        table,
        CAPACITY,
        shards,
        ResponderPolicy::fixed(responders),
        spin_config(),
    )
    .unwrap();
    (server, id)
}

#[test]
fn dropped_ticket_releases_its_slot() {
    for shape in SHAPES {
        let (server, id) = spawn_shape(shape);
        let r = server.requester();
        for i in 0..DROPS as u64 {
            let ticket = r.submit(id, i).unwrap();
            drop(ticket); // never redeemed: the old leak, many times over
        }
        // The ring still serves: more sync calls than slots, all correct.
        for i in 0..(2 * CAPACITY) as u64 {
            assert_eq!(r.call(id, i).unwrap(), i.wrapping_add(7));
        }
        server.shutdown();
    }
}

#[test]
fn interleaved_drops_and_waits_stay_correct() {
    for shape in SHAPES {
        let (server, id) = spawn_shape(shape);
        let r = server.requester();
        for round in 0..DROPS as u64 {
            let dropped = r.submit(id, 1_000 + round).unwrap();
            let kept = r.submit(id, round).unwrap();
            drop(dropped);
            // The kept ticket redeems its own response, not the orphan's.
            assert_eq!(r.wait(kept).unwrap(), round.wrapping_add(7));
        }
        server.shutdown();
    }
}

#[test]
fn mailbox_dropped_ticket_releases_the_slot() {
    let (table, id) = table();
    let server = HotCallServer::spawn(table, spin_config());
    let r = server.requester();
    // The mailbox holds exactly one call; every drop would wedge it.
    for i in 0..DROPS as u64 {
        let ticket = r.submit(id, i).unwrap();
        drop(ticket);
        assert_eq!(r.call(id, i).unwrap(), i.wrapping_add(7));
    }
    server.shutdown();
}
