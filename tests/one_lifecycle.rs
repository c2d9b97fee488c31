//! The fleet lifecycle is written once: this scan of `crates/**/*.rs`
//! fails when a second copy of one of its pieces appears — a rendezvous
//! coordinator outside `socket/rendezvous.rs`, a panic-payload reader
//! beside `caf_fabric::panic_message`, a thread spawner for images beside
//! `caf_fabric::run_images`, a parent that talks to its children by
//! editing its own environment instead of `LaunchSpec::child_env`, a
//! second block that re-runs the current executable beside
//! `LaunchSpec::rerun`, or a hidden `…-child` mode in place of
//! `ChildEnv::detect`.
//!
//! The same scan holds `caf-collectives` to "a tree collective is a shape
//! plus one protocol": a second function that runs the broadcast's ack or
//! release wave, a second gather or scatter body that waits for its
//! release or counts the scatter's acks, a second barrier that releases,
//! or a second place that works out which set the root belongs to (the
//! start of every "effective leader" derivation) fails it.
//!
//! And it keeps each collective at one definition: the hosted stepper runs
//! the real bodies through a recorder (`collectives/src/hosted.rs`), so a
//! `StepProgram` anywhere else under `crates/` — outside test code — is a
//! collective written a second time as a state machine. Team resources keep
//! one id each: a per-member id table in the collectives or the runtime
//! (`Vec<SegmentId>`, `Vec<FlagId>`, the old `MemberRsrc`) fails it.
//!
//! And every hop of a collective is one message: an unsignalled remote put
//! in `caf-collectives` (the old `send_values` / `put_raw`, or a bare
//! `Fabric::put`) fails it.
//!
//! And the collectives read no environment and have one send path: a
//! `std::env::var` (the old size-policy and AM-routing overrides) or an
//! active-message sender (`Am::new`, `AmPolicy`) in `caf-collectives`
//! outside test code fails it.
//!
//! And a flag's arrivals are counted in one place, `caf_fabric::Arrivals`:
//! a raw `flag_wait_ge` in the collectives or the runtime, or one of the
//! hand-kept counters it replaced, fails it.
//!
//! And a put's fixed fields have one codec on the wire, `PutHead`: a
//! borrowed twin of the bulk frames (the old `FrameRef`), or the bulk tags
//! read and written all over `socket/wire.rs` again, fails it.
//!
//! And each control frame is declared once, as one row of `socket/wire.rs`'s
//! `frames!` table: a tag constant or a hand-written arm beside the row, or
//! a count field checked and sized anywhere but the `Vec<T>` decoder of the
//! field codecs, fails it.
//!
//! And each trace kind is declared once, as one row of `trace/src/event.rs`'s
//! `kinds!` table, and a collective algorithm's trace code is its enum
//! discriminant: a hand-written `EventKind` decoder or name arm, a kind list
//! deciding which operand holds the team tag, or an `fn algo_code` in the
//! collectives fails it.
//!
//! And an active-message batch has one delivery path, `Fabric::am_deliver`'s
//! default, which replays each op through the ordinary one-sided calls: an
//! `fn am_deliver` under `crates/*/src` anywhere but that default
//! (`fabric/src/lib.rs`) and `Script`'s refusal (`fabric/src/stepper.rs`)
//! fails it.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, with its text.
fn sources(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            out.push((path, text));
        }
    }
}

/// Files (relative to `crates/`) in which `needle` occurs, once per hit.
fn hits<'a>(files: &'a [(PathBuf, String)], needle: &str, in_tests_too: bool) -> Vec<&'a str> {
    let mut found = Vec::new();
    for (path, text) in files {
        // A file's own test module starts at its first `#[cfg(test)]`.
        let scanned = match text.find("\n#[cfg(test)]") {
            Some(at) if !in_tests_too => &text[..at],
            _ => text,
        };
        let name = path.to_str().unwrap().split("/crates/").nth(1).unwrap();
        found.extend(scanned.matches(needle).map(|_| name));
    }
    found.sort_unstable();
    found
}

#[test]
fn each_piece_of_the_fleet_lifecycle_has_one_home() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    sources(&root, &mut files);
    assert!(files.len() > 100, "the scan found {} files", files.len());

    // Only the coordinator answers a Hello (and only the codec, its
    // round-trip test and the hostile-input sweep over every frame know the
    // frame besides) — unit tests included.
    let peers: Vec<&str> = hits(&files, "Frame::Peers {", true)
        .into_iter()
        .filter(|f| !f.starts_with("fabric/src/socket/rendezvous.rs"))
        .filter(|f| !f.starts_with("fabric/src/socket/wire.rs"))
        .filter(|f| !f.starts_with("fabric/tests/decode_alloc.rs"))
        .collect();
    assert!(
        peers.is_empty(),
        "use socket::rendezvous::Coordinator, not a hand-rolled one: {peers:?}"
    );

    // One reader of panic payloads, for sources and tests alike.
    assert_eq!(
        hits(&files, "downcast_ref::<String>", true),
        ["fabric/src/spmd.rs"],
        "use caf_fabric::panic_message"
    );

    // Image threads come from run_images; the other two spawners are the
    // socket fabric's service threads and the obs HTTP server.
    assert_eq!(
        hits(&files, "thread::Builder", false),
        [
            "fabric/src/socket/link.rs",
            "fabric/src/spmd.rs",
            "obs/src/server.rs"
        ],
        "use caf_fabric::run_images (or a front of it) for image threads"
    );

    // No library or binary edits its own environment; a file's unit tests
    // and the integration tests (outside src/) may.
    for call in ["env::set_var", "env::remove_var"] {
        let editors: Vec<&str> = hits(&files, call, false)
            .into_iter()
            .filter(|f| f.contains("/src/"))
            .collect();
        assert!(
            editors.is_empty(),
            "{call} above the test module of {editors:?}: \
             hand children their settings in LaunchSpec::child_env"
        );
    }

    // A program becomes its own fleet in one place, and a member knows its
    // role from the launcher's variables, not from a mode in its argv.
    let reruns: Vec<&str> = hits(&files, "current_exe", true)
        .into_iter()
        .filter(|f| f.contains("/src/"))
        .collect();
    assert!(
        !reruns.is_empty() && reruns.iter().all(|f| *f == "launch/src/lib.rs"),
        "re-run the current executable through LaunchSpec::rerun only: {reruns:?}"
    );
    let modes: Vec<&str> = hits(&files, "-child\"", true)
        .into_iter()
        .filter(|f| f.contains("/src/"))
        .collect();
    assert!(
        modes.is_empty(),
        "a fleet member is whoever ChildEnv::detect finds, not a hidden mode: {modes:?}"
    );
}

#[test]
fn each_tree_protocol_has_one_body() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/collectives");
    let mut files = Vec::new();
    sources(&root, &mut files);
    let hits = |needle: &str| hits(&files, needle, false);

    // The three-wave broadcast: one wait and one add per wave flag, each
    // flag indexed by the episode's scratch parity.
    for flag in ["flag::B_ACK[", "flag::B_DONE["] {
        let why = "a broadcast algorithm is a Tree for the waves in bcast.rs, not a new body";
        assert_eq!(hits(flag), ["collectives/src/bcast.rs"; 2], "{flag}: {why}");
        let wait = format!("arrivals({flag}");
        assert_eq!(hits(&wait), ["collectives/src/bcast.rs"], "{wait}: {why}");
    }
    // Gather and scatter: one wait and one add per release/ack flag.
    for flag in ["flag::GA_DONE", "flag::SC_ACK", "flag::SC_DONE"] {
        let why = "a gather algorithm is a Tree for the walks in gather.rs, not a new body";
        assert_eq!(
            hits(flag),
            ["collectives/src/gather.rs"; 2],
            "{flag}: {why}"
        );
        let wait = format!("arrivals({flag}");
        assert_eq!(hits(&wait), ["collectives/src/gather.rs"], "{wait}: {why}");
    }
    // The gather/release barrier: its flags are named by the shape only,
    // and one function walks the levels.
    for flag in ["flag::RELEASE", "flag::S_RELEASE"] {
        assert_eq!(
            hits(flag),
            ["collectives/src/shape.rs"],
            "{flag}: a barrier algorithm is a list of levels for barrier::walk"
        );
    }
    assert_eq!(hits("lv.release"), ["collectives/src/barrier.rs"; 2]);
    // The root stands in for its node's leader: derived in Rooted::new.
    assert_eq!(
        hits("leader_index_of(root)"),
        ["collectives/src/shape.rs"],
        "use shape::Rooted for the effective leaders of a rooted collective"
    );
}

#[test]
fn every_collective_hop_is_one_message() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/collectives/src");
    let mut files = Vec::new();
    sources(&root, &mut files);
    let hits = |needle: &str| hits(&files, needle, false);
    let why = "a payload travels with the notification that publishes it: \
               TeamComm::put_flag / send_flagged (one Fabric::put_flag)";

    // The unsignalled senders are gone, and no bare put replaces them.
    for gone in ["send_values(", "put_raw(", ".put("] {
        assert_eq!(hits(gone), Vec::<&str>::new(), "{gone}: {why}");
    }
    // The fabric's data plane is reached twice: the signalled put, and a
    // pipelined chunk's nonblocking put (its flag follows; the wire fuses
    // the two while the put is corked).
    assert_eq!(
        hits(".put_flag(self.me"),
        ["collectives/src/comm.rs"],
        "{why}"
    );
    assert_eq!(
        hits(".put_nb("),
        ["collectives/src/comm.rs"],
        "a pipelined chunk goes through TeamComm::send_values_nb"
    );
}

#[test]
fn collectives_read_no_environment_and_have_one_send_path() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/collectives/src");
    let mut files = Vec::new();
    sources(&root, &mut files);
    let hits = |needle: &str| hits(&files, needle, false);

    assert_eq!(
        hits("env::var"),
        Vec::<&str>::new(),
        "an algorithm or size policy comes from CollectiveConfig and the cost model, \
         not from the environment"
    );
    for sender in ["Am::new", "AmPolicy"] {
        assert_eq!(
            hits(sender),
            Vec::<&str>::new(),
            "{sender}: every hop is one Fabric::put_flag; an AM batch would hold one op"
        );
    }
}

#[test]
fn each_collective_has_one_definition() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    sources(&root, &mut files);

    // Test-local traffic programs (unit-test modules, `tests/` directories)
    // may step whatever they like; sources, benches and binaries may not.
    let programs: Vec<&str> = hits(&files, "StepProgram for", false)
        .into_iter()
        .filter(|f| !f.contains("/tests/"))
        .collect();
    assert_eq!(
        programs,
        ["collectives/src/hosted.rs"],
        "host the real TeamComm body (caf_collectives::hosted), do not re-encode it"
    );

    // A team resource has one id, the same on every member (the placement
    // rule in collectives/src/comm.rs): no per-member table of ids comes
    // back, in the collectives or the runtime above them.
    for dir in ["collectives/src/", "runtime/src/"] {
        for needle in ["MemberRsrc", "Vec<SegmentId>", "Vec<FlagId>"] {
            let tables: Vec<&str> = hits(&files, needle, false)
                .into_iter()
                .filter(|f| f.starts_with(dir))
                .collect();
            assert!(
                tables.is_empty(),
                "{needle} in {tables:?}: allocate through TeamComm::alloc_symmetric and \
                 keep one id"
            );
        }
    }

    // The stepper knows ops, not algorithms: no tree arithmetic, tests included.
    for needle in ["binomial_", "ceil_log2"] {
        let found: Vec<&str> = hits(&files, needle, true)
            .into_iter()
            .filter(|f| *f == "fabric/src/stepper.rs")
            .collect();
        assert!(
            found.is_empty(),
            "fabric/src/stepper.rs mentions `{needle}`: a collective's shape belongs to caf-collectives"
        );
    }
}

#[test]
fn every_wait_is_the_counted_wait() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    sources(&root.join("collectives/src"), &mut files);
    sources(&root.join("runtime/src"), &mut files);
    let hits = |needle: &str| hits(&files, needle, false);
    let why = "wait for the arrivals an episode brings through caf_fabric::Arrivals \
               (TeamComm::arrivals in the collectives), not a threshold kept by hand";
    let counters = [
        "bcast_arrived",
        "bump_r_round",
        "bump_chunk",
        "sync_count",
        "consumed:",
    ];
    for raw in ["flag_wait_ge(", "wait_flag(", "struct Epochs"]
        .iter()
        .chain(&counters)
    {
        assert_eq!(hits(raw), Vec::<&str>::new(), "{raw}: {why}");
    }
}

#[test]
fn a_bulk_frame_head_has_one_codec() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    sources(&root, &mut files);
    assert_eq!(
        hits(&files, "FrameRef", false),
        Vec::<&str>::new(),
        "a put leaves as a PutHead and its borrowed payload (PutHead::encode_head)"
    );

    // The bulk tags are named where the one head codec writes and reads
    // them, not once per encoder, decoder and rewriter.
    let wire = std::fs::read_to_string(root.join("fabric/src/socket/wire.rs")).unwrap();
    let code = &wire[..wire.find("\n#[cfg(test)]").unwrap_or(wire.len())];
    let named = (code.lines())
        .filter(|line| !line.trim_start().starts_with("const T_"))
        .flat_map(|line| line.split(|c: char| !c.is_alphanumeric() && c != '_'))
        .filter(|word| ["T_PUT", "T_PUT_FLAG", "T_GET_RESP"].contains(word))
        .count();
    assert!(
        named <= 6,
        "the bulk tags are named {named} times in socket/wire.rs: encode and parse a \
         bulk frame's head through PutHead and the GetResp head, not by hand"
    );
}

#[test]
fn each_frame_is_declared_once() {
    let socket = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/fabric/src/socket");
    let code = |file: &str| {
        let text = std::fs::read_to_string(socket.join(file)).unwrap();
        let end = text.find("\n#[cfg(test)]").unwrap_or(text.len());
        (text[..end].lines())
            .filter(|line| !line.trim_start().starts_with("//"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let wire = code("wire.rs");
    let control = [
        "Open",
        "PutAck",
        "Get",
        "AmoFadd",
        "AmoCas",
        "AmoResp",
        "FlagAdd",
        "Heartbeat",
        "Bye",
        "Rejoin",
        "RecoverBarrier",
        "Hello",
        "Peers",
        "Done",
        "Abort",
        "Telemetry",
    ];

    // A control frame's tag is written in its row, `Name = tag {`, and
    // nowhere else: the only tag constants are the bulk frames'.
    let rows: Vec<(&str, u8)> = (wire.lines())
        .filter_map(|line| {
            let (name, rest) = line.trim().split_once(" = ")?;
            Some((name, rest.strip_suffix(" {")?.parse().ok()?))
        })
        .collect();
    assert_eq!(
        rows.iter().map(|&(name, _)| name).collect::<Vec<_>>(),
        control,
        "one frames! row per control frame"
    );
    let consts: Vec<(&str, u8)> = (wire.lines())
        .filter_map(|line| {
            let (name, rest) = line.strip_prefix("const T_")?.split_once(": u8 = ")?;
            Some((name, rest.strip_suffix(';')?.parse().ok()?))
        })
        .collect();
    assert_eq!(
        consts.iter().map(|&(name, _)| name).collect::<Vec<_>>(),
        ["PUT", "GET_RESP", "AM_BATCH", "PUT_FLAG"],
        "a tag constant beside the frames! table"
    );
    let mut tags: Vec<u8> = rows.iter().chain(&consts).map(|&(_, tag)| tag).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(
        tags.len(),
        rows.len() + consts.len(),
        "two frames share a tag"
    );

    // No arm is written by hand: the table's generated arms are the only
    // code that names a control frame.
    for name in control {
        let arm = format!("Frame::{name} ");
        assert!(
            !wire.contains(&arm),
            "socket/wire.rs names {arm}by hand: encode and decode it through its frames! row"
        );
    }

    // A count field is read, checked and sized in one place: the `Vec<T>`
    // decoder is the one caller of `Cursor::remaining`.
    let obs = code("obs.rs");
    let calls = wire.matches(".remaining()").count() + obs.matches(".remaining()").count();
    assert_eq!(calls, 1, "remaining() outside the Vec<T> decoder");
    let vec_codec = &wire[wire.find("Field for Vec<T>").unwrap()..];
    let vec_codec = &vec_codec[..vec_codec.find("\n}").unwrap()];
    assert!(
        vec_codec.contains(".remaining()"),
        "the Vec<T> decoder bounds its allocation by the bytes left"
    );
}

#[test]
fn each_trace_kind_is_declared_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    sources(&root, &mut files);

    // A kind's code and name are written in its row, `Name = code "name"`;
    // the table generates the decoder and name arms, so no source writes
    // `16 => EventKind::Barrier` or `EventKind::Barrier => "barrier"`.
    for (path, text) in &files {
        let name = path.to_str().unwrap().split("/crates/").nth(1).unwrap();
        if !name.contains("/src/") {
            continue;
        }
        let code = &text[..text.find("\n#[cfg(test)]").unwrap_or(text.len())];
        for line in code.lines().map(str::trim) {
            let Some((pat, arm)) = line.split_once(" => ") else {
                continue;
            };
            let kind = |s: &str| {
                s.contains("EventKind::") || (name == "trace/src/event.rs" && s.contains("Self::"))
            };
            let decoder = !pat.is_empty() && pat.bytes().all(|b| b.is_ascii_digit()) && kind(arm);
            let namer = arm.starts_with('"') && kind(pat);
            assert!(
                !decoder && !namer,
                "{name}: `{line}` — a kind's code and name belong in its kinds! row"
            );
        }
    }

    // The team operand is the row's too, and every span aggregates.
    let hits = |needle: &str| hits(&files, needle, false);
    for gone in ["fn team_of", "fn aggregatable"] {
        assert_eq!(
            hits(gone),
            Vec::<&str>::new(),
            "{gone}: name the team operand in the kind's kinds! row (Event::team)"
        );
    }
    let codes: Vec<&str> = (hits("fn algo_code").into_iter())
        .filter(|f| f.starts_with("collectives/src/"))
        .collect();
    assert_eq!(
        codes,
        Vec::<&str>::new(),
        "a collective algorithm's trace code is its enum discriminant (`algo as u64`)"
    );
}

#[test]
fn an_active_message_batch_has_one_delivery_path() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    sources(&root, &mut files);
    let defs: Vec<&str> = (hits(&files, "fn am_deliver", false).into_iter())
        .filter(|f| f.contains("/src/"))
        .collect();
    assert_eq!(
        defs,
        ["fabric/src/lib.rs", "fabric/src/stepper.rs"],
        "a batch is delivered by Fabric::am_deliver's default, op by op through put, \
         flag_add, amo_fetch_add_u64 and put_flag: a backend's own batch landing is a \
         second delivery path"
    );
}
