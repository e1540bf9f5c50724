//! One accounted per-frame step: the same byte stream, ingested in
//! process through `Aggregator::ingest_stream` and over a real TCP
//! socket through a `Server`, must leave the same
//! `ppp_agg_frames_ingested_total{kind}`, `ppp_agg_bytes_ingested_total`
//! and `ppp_agg_frames_rejected_total{reason}` series behind.
//!
//! The metrics registry is process-global and caps each label at 32
//! values, so this test keeps a binary of its own.

use ppp_agg::{AggConfig, AggService, Aggregator, FrameSink, Hello, ServeOptions, Server, TcpSink};
use ppp_ir::wire::{encode_frame, encode_seq_payload, FrameKind, FRAME_HEADER_LEN};
use ppp_ir::{
    encode_edge_delta, encode_path_delta, FunctionBuilder, Module, ModuleEdgeProfile,
    ModulePathProfile, Reg,
};
use std::net::TcpListener;
use std::sync::Arc;

const INPROC: &str = "parity-inproc";
const TCP: &str = "parity-tcp";

/// The families whose series must match between the two transports.
const FAMILIES: [&str; 3] = [
    "ppp_agg_frames_ingested_total",
    "ppp_agg_bytes_ingested_total",
    "ppp_agg_frames_rejected_total",
];

fn module() -> Arc<Module> {
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("main", 1);
    let (t, e) = (b.new_block(), b.new_block());
    b.branch(Reg(0), t, e);
    b.switch_to(t);
    b.ret(None);
    b.switch_to(e);
    b.ret(None);
    m.add_function(b.finish());
    Arc::new(m)
}

/// Hello, a sequenced edge delta, a sequenced path delta, then a frame
/// whose payload fails its CRC. The hello names the TCP bench, so both
/// transports see the very same bytes.
fn stream(m: &Module) -> Vec<Vec<u8>> {
    let hello = Hello {
        bench: TCP.to_owned(),
        funcs: m.functions.len(),
        scale_bits: 0,
        worker: 1,
    };
    let edges = encode_edge_delta(m, &ModuleEdgeProfile::zeroed(m));
    let paths = encode_path_delta(m, &ModulePathProfile::with_capacity(1));
    let mut damaged = encode_frame(FrameKind::SeqEdgeDelta, &encode_seq_payload(1, 3, &edges));
    damaged[FRAME_HEADER_LEN + 4] ^= 0x40;
    vec![
        encode_frame(FrameKind::Hello, &hello.encode()),
        encode_frame(FrameKind::SeqEdgeDelta, &encode_seq_payload(1, 1, &edges)),
        encode_frame(FrameKind::SeqPathDelta, &encode_seq_payload(1, 2, &paths)),
        damaged,
    ]
}

/// The registry's lines of `FAMILIES` for `bench`, with the bench
/// label taken out so two benches compare directly.
fn series(bench: &str) -> Vec<String> {
    let label = format!("bench=\"{bench}\"");
    let mut lines: Vec<String> = ppp_obs::global()
        .metrics()
        .render_prometheus()
        .lines()
        .filter(|l| FAMILIES.iter().any(|f| l.starts_with(&format!("{f}{{"))))
        .filter(|l| l.contains(&label))
        .map(|l| l.replace(&label, "bench"))
        .collect();
    lines.sort();
    lines
}

#[test]
fn tcp_and_in_process_ingest_account_the_same_stream_alike() {
    let m = module();
    let frames = stream(&m);

    let agg = Aggregator::new(INPROC, Arc::clone(&m), AggConfig::default());
    let report = agg.ingest_stream(&frames.concat());
    assert_eq!(report.frames_accepted(), 3, "{report:?}");
    assert!(
        report.wire_error.is_some(),
        "the CRC damage ends the stream"
    );

    let service = AggService::new(AggConfig::default());
    let module = Arc::clone(&m);
    let server = Server::spawn(
        TcpListener::bind("127.0.0.1:0").expect("bind"),
        Arc::clone(&service),
        Arc::new(move |h: &Hello| (h.bench == TCP).then(|| Arc::clone(&module))),
        ServeOptions::default(),
    )
    .expect("spawn");
    let mut sink = TcpSink::connect(server.addr()).expect("connect");
    for f in &frames {
        sink.send_frame(f).expect("send");
    }
    // The server answers the damage with a reject, after counting it.
    let err = sink.read_ack().expect_err("damaged frame refused");
    assert!(err.contains("rejected"), "{err}");
    server.shutdown();

    let inproc = series(INPROC);
    assert!(
        inproc
            .iter()
            .any(|l| l.starts_with("ppp_agg_frames_rejected_total{")),
        "the damage counts as a rejection in process: {inproc:?}"
    );
    assert_eq!(inproc.len(), 5, "hello, two delta kinds, bytes, reject");
    assert_eq!(series(TCP), inproc);
}
