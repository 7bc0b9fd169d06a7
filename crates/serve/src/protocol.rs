//! The line-delimited text protocol `pitex serve` speaks.
//!
//! Every request and response is a single `\n`-terminated ASCII line of
//! whitespace-separated tokens — trivially scriptable (`nc`, `telnet`) and
//! dependency-free to parse. Requests:
//!
//! ```text
//! PING                              liveness probe
//! QUERY <user> <k> [timeout_us] [backend]
//!                                   a PITEX query (Def. 1); the optional
//!                                   backend overrides the server's method
//!                                   per request — `auto` asks the planner
//! EXPLAIN <user> <k> [timeout_us] [backend]
//!                                   run the query and report the planner's
//!                                   decision: chosen backend, predicted vs.
//!                                   actual cost, rejected alternatives
//! TRACE <user> <k> [timeout_us] [backend] [id=<hex>]
//!                                   run the query and return its span
//!                                   timeline; `id=` carries the trace id
//!                                   across the router→shard hop (minted
//!                                   at admission when absent)
//! STATS                             server counters and latency percentiles
//! METRICS                           Prometheus text exposition (the one
//!                                   multi-line reply: lines until `# EOF`)
//! SERIES <field> [fast|mid|slow]    one registry field's rolling ring from
//!                                   the background sampler (default fast);
//!                                   counters come back as per-window
//!                                   deltas, histograms as per-window
//!                                   snapshots
//! HEALTH                            SLO burn-rate verdict: per-objective
//!                                   ok|warn|page with the evidence
//!                                   (window, burn rate, offending field);
//!                                   a router merges shard verdicts and
//!                                   names the worst shard
//! FLIGHT                            dump the flight recorder: the last N
//!                                   request summaries and the slow-query
//!                                   log (admin)
//! CAPTURE <on|off|rotate>           control the workload-capture recorder:
//!                                   pause/resume sampling into the `PWRK`
//!                                   log, or rotate the log file aside and
//!                                   start a fresh one (admin; capture must
//!                                   have been configured at boot via
//!                                   `PITEX_OBS_CAPTURE`)
//! UPDATE <op…>                      stage one model mutation (admin)
//! RELOAD                            fold staged ops, repair the index,
//!                                   swap the snapshot (admin)
//! PREPARE                           phase 1 of a coordinated reload: fold +
//!                                   repair into a staged snapshot, do NOT
//!                                   swap (admin)
//! COMMIT                            phase 2: swap the PREPAREd snapshot in
//!                                   (admin)
//! EPOCH                             current snapshot epoch (admin)
//! SYNC <from_epoch>                 stream the update-log suffix a stale
//!                                   replica needs to replay from
//!                                   `from_epoch` up to this server's
//!                                   epoch (admin)
//! DISCARD                           drop every staged-but-uncommitted op
//!                                   (and any PREPAREd snapshot) — how a
//!                                   rejoining replica yields its local
//!                                   pending state to a catch-up donor's
//!                                   (admin)
//! QUIT                              close this connection
//! SHUTDOWN                          gracefully stop the whole server
//! ```
//!
//! `PREPARE`/`COMMIT` split `RELOAD` so a cluster router can run an epoch
//! barrier: the slow half (fold + index repair) happens on every shard
//! first, then the cheap swaps are committed back-to-back — the window in
//! which two shards serve different epochs shrinks from "one repair each"
//! to "one atomic swap each".
//!
//! The `UPDATE` operand is the [`pitex_live::UpdateOp`] text grammar, e.g.
//! `UPDATE SET_EDGE 0 1 0:0.9` or `UPDATE DETACH_TAG 2`.
//!
//! Responses (one line per request, in order):
//!
//! ```text
//! PONG
//! OK user=<u> k=<k> tags=<t1,t2,..> spread=<f> cached=<0|1> us=<micros>
//! EXPLAINED user=<u> k=<k> backend=<name> predicted_us=<p> actual_us=<a>
//!           us=<total> degraded=<0|1> tags=<..> spread=<f>
//!           rejected=<name:pred:reason,..|->
//! TRACED trace_id=<hex> user=<u> k=<k> tags=<..> spread=<f> cached=<0|1>
//!        us=<micros> spans=<name:start:dur,..|->
//! STATS <key>=<value> ...
//! FLIGHTED n=<count> slow=<count> entries=<trace:verb:user:k:backend:outcome:us:ts;..|->
//!                                   newest last; `ts` is wall-clock µs at
//!                                   admission; the slow-log entries are
//!                                   appended after the ring entries
//! CAPTURED enabled=<0|1> recorded=<n> dropped=<n>
//!                                   capture recorder state after a CAPTURE
//!                                   verb (counts are since boot)
//! SERIESED field=<f> res=<fast|mid|slow> tick_ms=<n> window_ticks=<n>
//!          kind=<counter|gauge|hist> n=<count> points=<p1;p2;..|->
//!                                   ring contents oldest-first; a point is
//!                                   a number (counter/gauge) or a
//!                                   histogram wire string (hist); `n=`
//!                                   disambiguates one empty histogram
//!                                   (`-`) from the empty list
//! HEALTHY status=<ok|warn|page> worst=<origin|->
//!         slos=<name:status:window:burn:field:origin;..|->
//!                                   the component verdict plus every
//!                                   per-objective verdict with evidence;
//!                                   `worst` is the origin of the worst
//!                                   non-ok verdict
//! UPDATED epoch=<e> pending=<n>     op staged; visible after RELOAD
//! RELOADED epoch=<e> folded=<n> resampled=<r> reused=<u> full=<0|1>
//! PREPARED epoch=<e> folded=<n> resampled=<r> reused=<u> full=<0|1>
//! EPOCH <e>
//! SYNCED epoch=<e> base=<b> records=<n> pending=<p> bundle=<hex>
//!                                   the committed batches after
//!                                   `from_epoch` plus staged ops, as a
//!                                   hex-armored [`SyncBundle`]
//! DISCARDED epoch=<e> dropped=<n>   staged ops dropped; epoch unchanged
//! BYE
//! BUSY                              load shed: the request queue was full
//! ERR <CODE> <message>              CODE ∈ BAD_REQUEST | UNKNOWN_USER |
//!                                          BAD_K | DEADLINE | INTERNAL |
//!                                          BAD_UPDATE | ADMIN_DENIED
//! ```
//!
//! `tags` are 0-based tag ids (the paper's `w3` is `2`); `-` marks the empty
//! set. Both sides of the protocol live here so the server, the client and
//! the tests share one parser.

use pitex_core::plan::{RejectReason, RejectedPlan};
use pitex_core::{registry, EngineBackend};
use pitex_live::{SyncBundle, UpdateOp};
use pitex_model::TagId;
use pitex_support::obs::slo::{HealthVerdict, SloStatus, SloVerdict};
use pitex_support::obs::timeseries::{SeriesDump, SeriesKind, SeriesPoints, SeriesRes};
use pitex_support::obs::trace::{format_trace_id, parse_trace_id, spans_from_wire, spans_to_wire};
use pitex_support::obs::Span;
use std::collections::BTreeMap;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Ping,
    Query(QueryRequest),
    /// A query that additionally reports the planner's decision.
    Explain(QueryRequest),
    /// A query that additionally returns its span timeline (and echoes —
    /// or mints — its trace id).
    Trace(TraceRequest),
    Stats,
    /// Prometheus text exposition. The reply is the protocol's one
    /// multi-line response: raw exposition lines terminated by `# EOF`,
    /// written outside the [`Response`] enum.
    Metrics,
    /// Dump the flight recorder (admin-gated, like the other
    /// introspection-of-state verbs).
    Flight,
    /// One registry field's rolling ring from the background sampler
    /// (default resolution: fast). Unauthenticated, like `STATS` — it is
    /// how dashboards and `pitex top` see the recent past.
    Series {
        field: String,
        res: Option<SeriesRes>,
    },
    /// The SLO burn-rate verdict. Unauthenticated — it is what a load
    /// balancer or a stock Prometheus probes.
    Health,
    /// Control the workload-capture recorder (admin-gated).
    Capture(CaptureAction),
    /// Stage one mutation (admin-gated).
    Update(UpdateOp),
    /// Fold staged mutations into a fresh snapshot (admin-gated).
    Reload,
    /// Phase 1 of a two-phase reload: fold + repair without swapping
    /// (admin-gated).
    Prepare,
    /// Phase 2 of a two-phase reload: swap the prepared snapshot in
    /// (admin-gated).
    Commit,
    /// Read the current snapshot epoch (admin-gated).
    Epoch,
    /// Stream the update-log suffix after `from_epoch` (admin-gated) so a
    /// stale replica can replay its way back to the current epoch.
    Sync {
        from_epoch: u64,
    },
    /// Drop every staged-but-uncommitted op and any prepared snapshot
    /// (admin-gated) — the first step of replica catch-up, so a donor's
    /// history replay cannot double-apply the rejoiner's local pending.
    Discard,
    Quit,
    Shutdown,
}

/// The `CAPTURE` verb's operand: what to do to the workload recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaptureAction {
    /// Resume sampling into the configured `PWRK` log.
    On,
    /// Pause sampling and flush buffered records to disk.
    Off,
    /// Rename the current log aside (`<path>.1`, `.2`, …) and start a
    /// fresh one; the reply counts carry over (they are since boot).
    Rotate,
}

impl CaptureAction {
    pub fn as_str(self) -> &'static str {
        match self {
            CaptureAction::On => "on",
            CaptureAction::Off => "off",
            CaptureAction::Rotate => "rotate",
        }
    }

    pub fn parse(s: &str) -> Option<CaptureAction> {
        Some(match s {
            "on" => CaptureAction::On,
            "off" => CaptureAction::Off,
            "rotate" => CaptureAction::Rotate,
            _ => return None,
        })
    }
}

/// The `QUERY`/`EXPLAIN` verbs' operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// Query user (0-based vertex id).
    pub user: u32,
    /// Requested tag-set size.
    pub k: usize,
    /// Optional per-request deadline; the server default applies when absent.
    pub timeout_us: Option<u64>,
    /// Optional per-request backend override; the server's configured
    /// method applies when absent. `auto` defers to the cost-based planner.
    pub backend: Option<EngineBackend>,
}

impl QueryRequest {
    /// A plain `(user, k)` query under the server's defaults.
    pub fn new(user: u32, k: usize) -> Self {
        Self { user, k, timeout_us: None, backend: None }
    }
}

/// The `TRACE` verb's operands: a query plus an optional inbound trace id
/// (`id=<hex>`), which is how the router propagates the id it minted onto
/// the shard hop. Absent, the receiving server mints one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRequest {
    pub query: QueryRequest,
    pub trace_id: Option<u64>,
}

impl Request {
    /// Serializes to a protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Ping => "PING".to_string(),
            Request::Stats => "STATS".to_string(),
            Request::Metrics => "METRICS".to_string(),
            Request::Flight => "FLIGHT".to_string(),
            Request::Series { field, res } => match res {
                Some(res) => format!("SERIES {field} {}", res.name()),
                None => format!("SERIES {field}"),
            },
            Request::Health => "HEALTH".to_string(),
            Request::Capture(action) => format!("CAPTURE {}", action.as_str()),
            Request::Update(op) => format!("UPDATE {}", op.to_text()),
            Request::Reload => "RELOAD".to_string(),
            Request::Prepare => "PREPARE".to_string(),
            Request::Commit => "COMMIT".to_string(),
            Request::Epoch => "EPOCH".to_string(),
            Request::Sync { from_epoch } => format!("SYNC {from_epoch}"),
            Request::Discard => "DISCARD".to_string(),
            Request::Quit => "QUIT".to_string(),
            Request::Shutdown => "SHUTDOWN".to_string(),
            Request::Query(q) => format_query_line("QUERY", q),
            Request::Explain(q) => format_query_line("EXPLAIN", q),
            Request::Trace(t) => {
                let mut line = format_query_line("TRACE", &t.query);
                if let Some(id) = t.trace_id {
                    line.push_str(&format!(" id={}", format_trace_id(id)));
                }
                line
            }
        }
    }

    /// Parses a request line. The error string is a human-readable reason
    /// suitable for an `ERR BAD_REQUEST` reply.
    pub fn parse(line: &str) -> Result<Request, String> {
        // UPDATE hands its whole operand to the op grammar (which performs
        // its own trailing-token check).
        if let Some(rest) = line.trim_start().strip_prefix("UPDATE ") {
            return Ok(Request::Update(UpdateOp::parse_text(rest)?));
        }
        let mut tokens = line.split_ascii_whitespace();
        let verb = tokens.next().ok_or("empty request")?;
        let request =
            match verb {
                "PING" => Request::Ping,
                "STATS" => Request::Stats,
                "METRICS" => Request::Metrics,
                "FLIGHT" => Request::Flight,
                "SERIES" => {
                    let field = tokens.next().ok_or("SERIES needs <field> [fast|mid|slow]")?;
                    let res = match tokens.next() {
                        Some(token) => Some(SeriesRes::parse(token).ok_or_else(|| {
                            format!("bad series resolution {token:?} (want fast|mid|slow)")
                        })?),
                        None => None,
                    };
                    Request::Series { field: field.to_string(), res }
                }
                "HEALTH" => Request::Health,
                "CAPTURE" => {
                    let action = tokens.next().ok_or("CAPTURE needs <on|off|rotate>")?;
                    Request::Capture(CaptureAction::parse(action).ok_or_else(|| {
                        format!("bad capture action {action:?} (want on|off|rotate)")
                    })?)
                }
                "UPDATE" => return Err("UPDATE needs an operation".to_string()),
                "RELOAD" => Request::Reload,
                "PREPARE" => Request::Prepare,
                "COMMIT" => Request::Commit,
                "EPOCH" => Request::Epoch,
                "SYNC" => {
                    let from = tokens.next().ok_or("SYNC needs <from_epoch>")?;
                    let from_epoch =
                        from.parse().map_err(|_| format!("bad from_epoch {from:?} (want u64)"))?;
                    Request::Sync { from_epoch }
                }
                "DISCARD" => Request::Discard,
                "QUIT" => Request::Quit,
                "SHUTDOWN" => Request::Shutdown,
                "QUERY" | "EXPLAIN" => {
                    let q = parse_query_operands(verb, &mut tokens)?;
                    if verb == "QUERY" {
                        Request::Query(q)
                    } else {
                        Request::Explain(q)
                    }
                }
                "TRACE" => {
                    // The optional trailing `id=<hex>` operand is peeled off
                    // before the shared query-operand parser runs.
                    let mut operands: Vec<&str> = tokens.by_ref().collect();
                    let trace_id = match operands.last().and_then(|t| t.strip_prefix("id=")) {
                        Some(hex) => {
                            operands.pop();
                            Some(parse_trace_id(hex)?)
                        }
                        None => None,
                    };
                    let mut operands = operands.into_iter();
                    let query = parse_query_operands(verb, &mut operands)?;
                    if operands.next().is_some() {
                        return Err("trailing tokens after TRACE".to_string());
                    }
                    Request::Trace(TraceRequest { query, trace_id })
                }
                other => return Err(format!("unknown verb {other:?}")),
            };
        if tokens.next().is_some() {
            return Err(format!("trailing tokens after {verb}"));
        }
        Ok(request)
    }
}

fn format_query_line(verb: &str, q: &QueryRequest) -> String {
    let mut line = format!("{verb} {} {}", q.user, q.k);
    if let Some(t) = q.timeout_us {
        line.push_str(&format!(" {t}"));
    }
    if let Some(b) = q.backend {
        line.push_str(&format!(" {}", b.cli_name()));
    }
    line
}

/// `<user> <k> [timeout_us] [backend]` — timeout first when both optional
/// operands are present.
fn parse_query_operands<'a>(
    verb: &str,
    tokens: &mut impl Iterator<Item = &'a str>,
) -> Result<QueryRequest, String> {
    let user = tokens.next().ok_or_else(|| format!("{verb} needs <user> <k>"))?;
    let user: u32 = user.parse().map_err(|_| format!("bad user {user:?} (want u32)"))?;
    let k = tokens.next().ok_or_else(|| format!("{verb} needs <user> <k>"))?;
    let k: usize = k.parse().map_err(|_| format!("bad k {k:?} (want usize)"))?;
    let mut timeout_us = None;
    let mut backend = None;
    if let Some(token) = tokens.next() {
        if token.bytes().all(|b| b.is_ascii_digit()) {
            timeout_us =
                Some(token.parse().map_err(|_| format!("bad timeout_us {token:?} (want u64)"))?);
            if let Some(token) = tokens.next() {
                backend = Some(parse_backend_name(token)?);
            }
        } else {
            backend = Some(parse_backend_name(token)?);
        }
    }
    Ok(QueryRequest { user, k, timeout_us, backend })
}

/// Parses a wire backend name; the error names every valid method, sourced
/// from the backend registry so the listing can never drift.
pub fn parse_backend_name(token: &str) -> Result<EngineBackend, String> {
    EngineBackend::parse(token)
        .ok_or_else(|| format!("unknown backend {token:?} (valid: {})", registry::method_names()))
}

/// Machine-readable error classes, mirrored by the CLI exit paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line did not parse.
    BadRequest,
    /// The query user is outside the model's vertex range.
    UnknownUser,
    /// `k = 0` (a PITEX query selects at least one tag).
    BadK,
    /// The per-request deadline elapsed before the query ran.
    Deadline,
    /// The server failed internally (e.g. a worker panicked).
    Internal,
    /// An `UPDATE` op parsed but was semantically invalid (unknown vertex,
    /// duplicate edge, bad probability, …).
    BadUpdate,
    /// An admin verb (`UPDATE`/`RELOAD`/`EPOCH`) on a server started with
    /// admin verbs disabled.
    AdminDenied,
}

impl ErrorCode {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "BAD_REQUEST",
            ErrorCode::UnknownUser => "UNKNOWN_USER",
            ErrorCode::BadK => "BAD_K",
            ErrorCode::Deadline => "DEADLINE",
            ErrorCode::Internal => "INTERNAL",
            ErrorCode::BadUpdate => "BAD_UPDATE",
            ErrorCode::AdminDenied => "ADMIN_DENIED",
        }
    }

    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "BAD_REQUEST" => ErrorCode::BadRequest,
            "UNKNOWN_USER" => ErrorCode::UnknownUser,
            "BAD_K" => ErrorCode::BadK,
            "DEADLINE" => ErrorCode::Deadline,
            "INTERNAL" => ErrorCode::Internal,
            "BAD_UPDATE" => ErrorCode::BadUpdate,
            "ADMIN_DENIED" => ErrorCode::AdminDenied,
            _ => return None,
        })
    }
}

/// A successful query reply.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReply {
    /// Echo of the query user.
    pub user: u32,
    /// The effective `k` (clamped to the tag vocabulary, as the engine does).
    pub k: usize,
    /// The selected tag set `W*` (0-based ids, ascending).
    pub tags: Vec<TagId>,
    /// Estimated spread `Ê[I(u|W*)]`.
    pub spread: f64,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Server-side handling time in microseconds.
    pub us: u64,
}

/// The `TRACED` reply: a query answer plus its trace id and span timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReply {
    /// The request's trace id (inbound `id=` echoed, or minted here).
    pub trace_id: u64,
    /// Echo of the query user.
    pub user: u32,
    /// The effective `k`.
    pub k: usize,
    /// The selected tag set `W*`.
    pub tags: Vec<TagId>,
    /// Estimated spread.
    pub spread: f64,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Total server-side handling time in microseconds.
    pub us: u64,
    /// Where those microseconds went, offsets relative to admission. A
    /// router splices shard-side spans in under a `shard.` name prefix.
    pub spans: Vec<Span>,
}

/// One flight-recorder entry as it crosses the wire (owned strings — the
/// in-memory recorder uses `&'static str`, but a router dump aggregates
/// foreign entries too).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightWireEntry {
    pub trace_id: u64,
    pub verb: String,
    pub user: u32,
    pub k: usize,
    pub backend: String,
    pub outcome: String,
    pub us: u64,
    /// Wall-clock microseconds since `UNIX_EPOCH` at admission (the shared
    /// observability anchor), so dumps line up with `PWRK` capture records.
    pub ts_us: u64,
}

impl FlightWireEntry {
    fn to_token(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}:{}:{}:{}",
            format_trace_id(self.trace_id),
            self.verb,
            self.user,
            self.k,
            self.backend,
            self.outcome,
            self.us,
            self.ts_us
        )
    }

    fn from_token(token: &str) -> Result<Self, String> {
        let parts: Vec<&str> = token.split(':').collect();
        let bad = || format!("bad flight entry {token:?}");
        let [trace, verb, user, k, backend, outcome, us, ts] = parts.as_slice() else {
            return Err(bad());
        };
        Ok(Self {
            trace_id: parse_trace_id(trace)?,
            verb: verb.to_string(),
            user: user.parse().map_err(|_| bad())?,
            k: k.parse().map_err(|_| bad())?,
            backend: backend.to_string(),
            outcome: outcome.to_string(),
            us: us.parse().map_err(|_| bad())?,
            ts_us: ts.parse().map_err(|_| bad())?,
        })
    }
}

fn format_flight_entries(entries: &[FlightWireEntry]) -> String {
    if entries.is_empty() {
        return "-".to_string();
    }
    entries.iter().map(FlightWireEntry::to_token).collect::<Vec<_>>().join(";")
}

fn parse_flight_entries(s: &str) -> Result<Vec<FlightWireEntry>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(';').map(FlightWireEntry::from_token).collect()
}

/// The `FLIGHTED` reply: the recorder's ring (newest last, capped so the
/// reply stays a single line) and the slow-query log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightReply {
    /// Total entries ever recorded into the ring.
    pub recorded: u64,
    /// Total requests that crossed the slow threshold.
    pub slow_count: u64,
    /// The ring contents, oldest first.
    pub entries: Vec<FlightWireEntry>,
    /// The retained slow queries, oldest first.
    pub slow: Vec<FlightWireEntry>,
}

/// The `SERIESED` reply: one ring's contents plus the metadata a consumer
/// needs to lay the points on a time axis. Points stay wire-encoded
/// strings here — a number for counter/gauge series, a
/// [`LatencyHistogram`](pitex_support::obs::LatencyHistogram) wire string
/// for histogram series — so the protocol layer does not need to know
/// every shape.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesReply {
    pub field: String,
    pub res: SeriesRes,
    /// Sampler tick width in milliseconds.
    pub tick_ms: u64,
    /// Ticks per ring window (1 fast / 10 mid / 60 slow).
    pub window_ticks: u64,
    pub kind: SeriesKind,
    /// Completed windows, oldest first.
    pub points: Vec<String>,
}

impl SeriesReply {
    /// The points as numbers, for counter/gauge (and derived-quantile)
    /// series. Histogram points yield `None`.
    pub fn scalar_points(&self) -> Option<Vec<f64>> {
        self.points.iter().map(|p| p.parse().ok()).collect()
    }
}

impl From<SeriesDump> for SeriesReply {
    fn from(dump: SeriesDump) -> Self {
        let points = match &dump.points {
            SeriesPoints::Scalar(values) => {
                values.iter().map(|&v| crate::http::scalar_token(v)).collect()
            }
            SeriesPoints::Hist(hists) => hists.iter().map(|h| h.to_wire()).collect(),
        };
        Self {
            field: dump.field,
            res: dump.res,
            tick_ms: dump.tick_ms,
            window_ticks: dump.window_ticks,
            kind: dump.kind,
            points,
        }
    }
}

fn format_series_points(points: &[String]) -> String {
    if points.is_empty() {
        return "-".to_string();
    }
    points.join(";")
}

fn format_slos(slos: &[SloVerdict]) -> String {
    if slos.is_empty() {
        return "-".to_string();
    }
    slos.iter()
        .map(|v| {
            format!(
                "{}:{}:{}:{:.2}:{}:{}",
                v.name,
                v.status.name(),
                v.window,
                v.burn,
                v.field,
                v.origin
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

fn parse_slos(s: &str) -> Result<Vec<SloVerdict>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|entry| {
            let parts: Vec<&str> = entry.split(':').collect();
            let bad = || format!("bad slo entry {entry:?}");
            let [name, status, window, burn, field, origin] = parts.as_slice() else {
                return Err(bad());
            };
            Ok(SloVerdict {
                name: name.to_string(),
                status: SloStatus::parse(status).ok_or_else(bad)?,
                window: window.to_string(),
                burn: burn.parse().map_err(|_| bad())?,
                field: field.to_string(),
                origin: origin.to_string(),
            })
        })
        .collect()
}

/// The `STATS` reply: ordered `key=value` pairs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReply {
    fields: BTreeMap<String, String>,
}

impl StatsReply {
    pub fn new(fields: impl IntoIterator<Item = (String, String)>) -> Self {
        Self { fields: fields.into_iter().collect() }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(|s| s.as_str())
    }

    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.parse().ok()
    }

    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        self.fields.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// The `RELOADED` reply: what the snapshot swap did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReloadReply {
    /// Epoch now being served.
    pub epoch: u64,
    /// Staged ops folded into the new snapshot (0 = nothing to do, no swap).
    pub folded: u64,
    /// RR-Graphs resampled by incremental repair (θ on a full rebuild).
    pub resampled: u64,
    /// RR-Graphs reused from the previous index.
    pub reused: u64,
    /// Whether repair fell back to a full rebuild.
    pub full: bool,
}

/// The `EXPLAINED` reply: a query answer plus the planner's decision —
/// which backend ran, what it was predicted to cost, what it actually
/// cost, and every alternative that was rejected (with the reason).
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainReply {
    /// Echo of the query user.
    pub user: u32,
    /// The effective `k` (clamped to the tag vocabulary).
    pub k: usize,
    /// The concrete backend that answered (never `auto`).
    pub backend: EngineBackend,
    /// The planner's predicted service time for that backend.
    pub predicted_us: u64,
    /// Measured execution time on the worker (queue wait excluded).
    pub actual_us: u64,
    /// Total server-side handling time, queue wait included.
    pub us: u64,
    /// Whether the deadline budget forced a cheaper backend than the
    /// preferred one.
    pub degraded: bool,
    /// The selected tag set `W*`.
    pub tags: Vec<TagId>,
    /// Estimated spread.
    pub spread: f64,
    /// The alternatives the planner rejected.
    pub rejected: Vec<RejectedPlan>,
}

fn format_rejected(rejected: &[RejectedPlan]) -> String {
    if rejected.is_empty() {
        return "-".to_string();
    }
    rejected
        .iter()
        .map(|r| {
            let predicted =
                r.predicted_us.map(|us| us.to_string()).unwrap_or_else(|| "-".to_string());
            format!("{}:{predicted}:{}", r.backend.cli_name(), r.reason.as_str())
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_rejected(s: &str) -> Result<Vec<RejectedPlan>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|entry| {
            let mut parts = entry.split(':');
            let bad = || format!("bad rejected entry {entry:?}");
            let backend = parse_backend_name(parts.next().ok_or_else(bad)?)?;
            let predicted = parts.next().ok_or_else(bad)?;
            let predicted_us =
                if predicted == "-" { None } else { Some(predicted.parse().map_err(|_| bad())?) };
            let reason = parts.next().ok_or_else(bad)?;
            let reason = RejectReason::parse(reason).ok_or_else(bad)?;
            if parts.next().is_some() {
                return Err(bad());
            }
            Ok(RejectedPlan { backend, predicted_us, reason })
        })
        .collect()
}

/// A parsed response line.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    Pong,
    Ok(QueryReply),
    /// `EXPLAINED …` — see [`ExplainReply`].
    Explained(ExplainReply),
    /// `TRACED …` — see [`TraceReply`].
    Traced(TraceReply),
    Stats(StatsReply),
    /// `FLIGHTED …` — see [`FlightReply`].
    Flight(FlightReply),
    /// `SERIESED …` — see [`SeriesReply`].
    Series(SeriesReply),
    /// `HEALTHY …` — the SLO verdict, reusing the obs-layer
    /// [`HealthVerdict`] verbatim (burn rates round to two decimals on
    /// the wire).
    Health(HealthVerdict),
    /// `CAPTURED enabled=<0|1> recorded=<n> dropped=<n>` — capture
    /// recorder state after a `CAPTURE` verb (counts since boot).
    Captured {
        enabled: bool,
        recorded: u64,
        dropped: u64,
    },
    /// `UPDATED epoch=<serving epoch> pending=<staged ops>`.
    Updated {
        epoch: u64,
        pending: u64,
    },
    /// `RELOADED …` — see [`ReloadReply`].
    Reloaded(ReloadReply),
    /// `PREPARED …` — a reload staged but not yet swapped; `epoch` is the
    /// epoch still being served, the remaining fields describe the staged
    /// snapshot exactly as `RELOADED` would.
    Prepared(ReloadReply),
    /// `EPOCH <e>`.
    Epoch(u64),
    /// `SYNCED …` — the hex-armored catch-up history ([`SyncBundle`]).
    Synced(SyncBundle),
    /// `DISCARDED epoch=<e> dropped=<n>` — staged ops dropped, epoch
    /// unchanged.
    Discarded {
        epoch: u64,
        dropped: u64,
    },
    Bye,
    Busy,
    Err {
        code: ErrorCode,
        message: String,
    },
}

fn format_tags(tags: &[TagId]) -> String {
    if tags.is_empty() {
        return "-".to_string();
    }
    tags.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",")
}

fn parse_tags(s: &str) -> Result<Vec<TagId>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',').map(|t| t.parse().map_err(|_| format!("bad tag id {t:?}"))).collect()
}

fn format_reload_fields(r: &ReloadReply) -> String {
    format!(
        "epoch={} folded={} resampled={} reused={} full={}",
        r.epoch,
        r.folded,
        r.resampled,
        r.reused,
        u8::from(r.full)
    )
}

fn parse_reload_fields(verb: &str, rest: &str) -> Result<ReloadReply, String> {
    let mut tokens = rest.split_ascii_whitespace();
    let mut next = |key: &str| -> Result<u64, String> {
        let token = tokens.next().ok_or_else(|| format!("missing {key}="))?;
        kv(token, key)?.parse().map_err(|_| format!("bad {key} in {verb}"))
    };
    Ok(ReloadReply {
        epoch: next("epoch")?,
        folded: next("folded")?,
        resampled: next("resampled")?,
        reused: next("reused")?,
        full: next("full")? != 0,
    })
}

fn kv<'a>(token: &'a str, key: &str) -> Result<&'a str, String> {
    token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| format!("expected {key}=<value>, found {token:?}"))
}

impl Response {
    /// The flight-recorder and capture outcome tag of a final reply.
    pub fn outcome(&self) -> &'static str {
        match self {
            Response::Busy => "busy",
            Response::Err { code: ErrorCode::Deadline, .. } => "deadline",
            Response::Err { .. } => "error",
            _ => "ok",
        }
    }

    /// Serializes to a protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Pong => "PONG".to_string(),
            Response::Bye => "BYE".to_string(),
            Response::Busy => "BUSY".to_string(),
            Response::Err { code, message } => {
                format!("ERR {} {}", code.as_str(), message)
            }
            Response::Ok(r) => format!(
                "OK user={} k={} tags={} spread={} cached={} us={}",
                r.user,
                r.k,
                format_tags(&r.tags),
                r.spread,
                u8::from(r.cached),
                r.us
            ),
            Response::Explained(r) => format!(
                "EXPLAINED user={} k={} backend={} predicted_us={} actual_us={} us={} \
                 degraded={} tags={} spread={} rejected={}",
                r.user,
                r.k,
                r.backend.cli_name(),
                r.predicted_us,
                r.actual_us,
                r.us,
                u8::from(r.degraded),
                format_tags(&r.tags),
                r.spread,
                format_rejected(&r.rejected)
            ),
            Response::Traced(r) => format!(
                "TRACED trace_id={} user={} k={} tags={} spread={} cached={} us={} spans={}",
                format_trace_id(r.trace_id),
                r.user,
                r.k,
                format_tags(&r.tags),
                r.spread,
                u8::from(r.cached),
                r.us,
                spans_to_wire(&r.spans)
            ),
            Response::Flight(r) => format!(
                "FLIGHTED n={} slow={} entries={} slow_entries={}",
                r.recorded,
                r.slow_count,
                format_flight_entries(&r.entries),
                format_flight_entries(&r.slow)
            ),
            Response::Series(r) => format!(
                "SERIESED field={} res={} tick_ms={} window_ticks={} kind={} n={} points={}",
                r.field,
                r.res.name(),
                r.tick_ms,
                r.window_ticks,
                r.kind.name(),
                r.points.len(),
                format_series_points(&r.points)
            ),
            Response::Health(r) => format!(
                "HEALTHY status={} worst={} slos={}",
                r.status.name(),
                r.worst,
                format_slos(&r.slos)
            ),
            Response::Captured { enabled, recorded, dropped } => {
                format!(
                    "CAPTURED enabled={} recorded={recorded} dropped={dropped}",
                    u8::from(*enabled)
                )
            }
            Response::Updated { epoch, pending } => {
                format!("UPDATED epoch={epoch} pending={pending}")
            }
            Response::Reloaded(r) => format!("RELOADED {}", format_reload_fields(r)),
            Response::Prepared(r) => format!("PREPARED {}", format_reload_fields(r)),
            Response::Epoch(e) => format!("EPOCH {e}"),
            Response::Synced(bundle) => format!(
                "SYNCED epoch={} base={} records={} pending={} bundle={}",
                bundle.epoch,
                bundle.base_epoch,
                bundle.records.len(),
                bundle.pending.len(),
                bundle.to_hex()
            ),
            Response::Discarded { epoch, dropped } => {
                format!("DISCARDED epoch={epoch} dropped={dropped}")
            }
            Response::Stats(s) => {
                let mut line = String::from("STATS");
                for (k, v) in s.iter() {
                    line.push(' ');
                    line.push_str(k);
                    line.push('=');
                    line.push_str(v);
                }
                line
            }
        }
    }

    /// Parses a response line (the client half of the protocol).
    pub fn parse(line: &str) -> Result<Response, String> {
        let line = line.trim_end();
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r),
            None => (line, ""),
        };
        match verb {
            "PONG" => Ok(Response::Pong),
            "BYE" => Ok(Response::Bye),
            "BUSY" => Ok(Response::Busy),
            "ERR" => {
                let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
                let code =
                    ErrorCode::parse(code).ok_or_else(|| format!("unknown error code {code:?}"))?;
                Ok(Response::Err { code, message: message.to_string() })
            }
            "OK" => {
                let mut tokens = rest.split_ascii_whitespace();
                let mut next = |key: &str| -> Result<String, String> {
                    let token = tokens.next().ok_or_else(|| format!("missing {key}="))?;
                    Ok(kv(token, key)?.to_string())
                };
                let user = next("user")?.parse().map_err(|_| "bad user in OK reply".to_string())?;
                let k = next("k")?.parse().map_err(|_| "bad k in OK reply".to_string())?;
                let tags = parse_tags(&next("tags")?)?;
                let spread =
                    next("spread")?.parse().map_err(|_| "bad spread in OK reply".to_string())?;
                let cached = match next("cached")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad cached flag {other:?}")),
                };
                let us = next("us")?.parse().map_err(|_| "bad us in OK reply".to_string())?;
                Ok(Response::Ok(QueryReply { user, k, tags, spread, cached, us }))
            }
            "EXPLAINED" => {
                let mut tokens = rest.split_ascii_whitespace();
                let mut next = |key: &str| -> Result<String, String> {
                    let token = tokens.next().ok_or_else(|| format!("missing {key}="))?;
                    Ok(kv(token, key)?.to_string())
                };
                let bad = |key: &str| format!("bad {key} in EXPLAINED reply");
                let user = next("user")?.parse().map_err(|_| bad("user"))?;
                let k = next("k")?.parse().map_err(|_| bad("k"))?;
                let backend = parse_backend_name(&next("backend")?)?;
                let predicted_us =
                    next("predicted_us")?.parse().map_err(|_| bad("predicted_us"))?;
                let actual_us = next("actual_us")?.parse().map_err(|_| bad("actual_us"))?;
                let us = next("us")?.parse().map_err(|_| bad("us"))?;
                let degraded = match next("degraded")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad degraded flag {other:?}")),
                };
                let tags = parse_tags(&next("tags")?)?;
                let spread = next("spread")?.parse().map_err(|_| bad("spread"))?;
                let rejected = parse_rejected(&next("rejected")?)?;
                Ok(Response::Explained(ExplainReply {
                    user,
                    k,
                    backend,
                    predicted_us,
                    actual_us,
                    us,
                    degraded,
                    tags,
                    spread,
                    rejected,
                }))
            }
            "TRACED" => {
                let mut tokens = rest.split_ascii_whitespace();
                let mut next = |key: &str| -> Result<String, String> {
                    let token = tokens.next().ok_or_else(|| format!("missing {key}="))?;
                    Ok(kv(token, key)?.to_string())
                };
                let bad = |key: &str| format!("bad {key} in TRACED reply");
                let trace_id = parse_trace_id(&next("trace_id")?)?;
                let user = next("user")?.parse().map_err(|_| bad("user"))?;
                let k = next("k")?.parse().map_err(|_| bad("k"))?;
                let tags = parse_tags(&next("tags")?)?;
                let spread = next("spread")?.parse().map_err(|_| bad("spread"))?;
                let cached = match next("cached")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad cached flag {other:?}")),
                };
                let us = next("us")?.parse().map_err(|_| bad("us"))?;
                let spans = spans_from_wire(&next("spans")?)?;
                Ok(Response::Traced(TraceReply {
                    trace_id,
                    user,
                    k,
                    tags,
                    spread,
                    cached,
                    us,
                    spans,
                }))
            }
            "FLIGHTED" => {
                let mut tokens = rest.split_ascii_whitespace();
                let mut next = |key: &str| -> Result<String, String> {
                    let token = tokens.next().ok_or_else(|| format!("missing {key}="))?;
                    Ok(kv(token, key)?.to_string())
                };
                let bad = |key: &str| format!("bad {key} in FLIGHTED reply");
                let recorded = next("n")?.parse().map_err(|_| bad("n"))?;
                let slow_count = next("slow")?.parse().map_err(|_| bad("slow"))?;
                let entries = parse_flight_entries(&next("entries")?)?;
                let slow = parse_flight_entries(&next("slow_entries")?)?;
                Ok(Response::Flight(FlightReply { recorded, slow_count, entries, slow }))
            }
            "SERIESED" => {
                let mut tokens = rest.split_ascii_whitespace();
                let mut next = |key: &str| -> Result<String, String> {
                    let token = tokens.next().ok_or_else(|| format!("missing {key}="))?;
                    Ok(kv(token, key)?.to_string())
                };
                let bad = |key: &str| format!("bad {key} in SERIESED reply");
                let field = next("field")?;
                let res = next("res")?;
                let res = SeriesRes::parse(&res).ok_or_else(|| bad("res"))?;
                let tick_ms = next("tick_ms")?.parse().map_err(|_| bad("tick_ms"))?;
                let window_ticks =
                    next("window_ticks")?.parse().map_err(|_| bad("window_ticks"))?;
                let kind = next("kind")?;
                let kind = SeriesKind::parse(&kind).ok_or_else(|| bad("kind"))?;
                let n: usize = next("n")?.parse().map_err(|_| bad("n"))?;
                let points = next("points")?;
                let points: Vec<String> = if n == 0 {
                    if points != "-" {
                        return Err(bad("points"));
                    }
                    Vec::new()
                } else {
                    points.split(';').map(|p| p.to_string()).collect()
                };
                if points.len() != n {
                    return Err(format!("SERIESED n={n} disagrees with {} points", points.len()));
                }
                Ok(Response::Series(SeriesReply {
                    field,
                    res,
                    tick_ms,
                    window_ticks,
                    kind,
                    points,
                }))
            }
            "HEALTHY" => {
                let mut tokens = rest.split_ascii_whitespace();
                let mut next = |key: &str| -> Result<String, String> {
                    let token = tokens.next().ok_or_else(|| format!("missing {key}="))?;
                    Ok(kv(token, key)?.to_string())
                };
                let status = next("status")?;
                let status = SloStatus::parse(&status)
                    .ok_or_else(|| format!("bad status {status:?} in HEALTHY reply"))?;
                let worst = next("worst")?;
                let slos = parse_slos(&next("slos")?)?;
                Ok(Response::Health(HealthVerdict { status, worst, slos }))
            }
            "CAPTURED" => {
                let mut tokens = rest.split_ascii_whitespace();
                let mut next = |key: &str| -> Result<u64, String> {
                    let token = tokens.next().ok_or_else(|| format!("missing {key}="))?;
                    kv(token, key)?.parse().map_err(|_| format!("bad {key} in CAPTURED"))
                };
                let enabled = match next("enabled")? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("bad enabled flag {other:?}")),
                };
                Ok(Response::Captured {
                    enabled,
                    recorded: next("recorded")?,
                    dropped: next("dropped")?,
                })
            }
            "UPDATED" => {
                let mut tokens = rest.split_ascii_whitespace();
                let mut next = |key: &str| -> Result<u64, String> {
                    let token = tokens.next().ok_or_else(|| format!("missing {key}="))?;
                    kv(token, key)?.parse().map_err(|_| format!("bad {key} in UPDATED"))
                };
                Ok(Response::Updated { epoch: next("epoch")?, pending: next("pending")? })
            }
            "RELOADED" => Ok(Response::Reloaded(parse_reload_fields(verb, rest)?)),
            "PREPARED" => Ok(Response::Prepared(parse_reload_fields(verb, rest)?)),
            "EPOCH" => {
                let epoch = rest.trim().parse().map_err(|_| format!("bad epoch {rest:?}"))?;
                Ok(Response::Epoch(epoch))
            }
            "SYNCED" => {
                let mut tokens = rest.split_ascii_whitespace();
                let mut next = |key: &str| -> Result<String, String> {
                    let token = tokens.next().ok_or_else(|| format!("missing {key}="))?;
                    Ok(kv(token, key)?.to_string())
                };
                let epoch: u64 =
                    next("epoch")?.parse().map_err(|_| "bad epoch in SYNCED".to_string())?;
                let _base = next("base")?;
                let _records = next("records")?;
                let _pending = next("pending")?;
                let bundle = SyncBundle::from_hex(&next("bundle")?)?;
                if bundle.epoch != epoch {
                    return Err(format!(
                        "SYNCED epoch field {epoch} disagrees with bundle epoch {}",
                        bundle.epoch
                    ));
                }
                Ok(Response::Synced(bundle))
            }
            "DISCARDED" => {
                let mut tokens = rest.split_ascii_whitespace();
                let mut next = |key: &str| -> Result<u64, String> {
                    let token = tokens.next().ok_or_else(|| format!("missing {key}="))?;
                    kv(token, key)?.parse().map_err(|_| format!("bad {key} in DISCARDED"))
                };
                Ok(Response::Discarded { epoch: next("epoch")?, dropped: next("dropped")? })
            }
            "STATS" => {
                let mut fields = BTreeMap::new();
                for token in rest.split_ascii_whitespace() {
                    let (k, v) = token
                        .split_once('=')
                        .ok_or_else(|| format!("bad stats token {token:?}"))?;
                    fields.insert(k.to_string(), v.to_string());
                }
                Ok(Response::Stats(StatsReply { fields }))
            }
            other => Err(format!("unknown response verb {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Ping,
            Request::Stats,
            Request::Reload,
            Request::Prepare,
            Request::Commit,
            Request::Epoch,
            Request::Quit,
            Request::Shutdown,
            Request::Query(QueryRequest::new(0, 2)),
            Request::Query(QueryRequest {
                timeout_us: Some(2_000_000),
                ..QueryRequest::new(41, 3)
            }),
            Request::Query(QueryRequest {
                backend: Some(EngineBackend::Auto),
                ..QueryRequest::new(7, 2)
            }),
            Request::Query(QueryRequest {
                timeout_us: Some(500),
                backend: Some(EngineBackend::IndexEstPlus),
                ..QueryRequest::new(7, 2)
            }),
            Request::Explain(QueryRequest::new(0, 2)),
            Request::Explain(QueryRequest {
                timeout_us: Some(1_000),
                backend: Some(EngineBackend::Auto),
                ..QueryRequest::new(3, 1)
            }),
            Request::Update(UpdateOp::AddEdge { src: 1, dst: 4, topics: vec![(0, 0.25)] }),
            Request::Update(UpdateOp::DetachTag { tag: 2 }),
            Request::Update(UpdateOp::AddUser),
            Request::Sync { from_epoch: 3 },
            Request::Discard,
            Request::Metrics,
            Request::Flight,
            Request::Series { field: "lat_hist".into(), res: None },
            Request::Series { field: "requests".into(), res: Some(SeriesRes::Fast) },
            Request::Series { field: "lat_p99_us".into(), res: Some(SeriesRes::Mid) },
            Request::Series { field: "qps".into(), res: Some(SeriesRes::Slow) },
            Request::Health,
            Request::Capture(CaptureAction::On),
            Request::Capture(CaptureAction::Off),
            Request::Capture(CaptureAction::Rotate),
            Request::Trace(TraceRequest { query: QueryRequest::new(0, 2), trace_id: None }),
            Request::Trace(TraceRequest {
                query: QueryRequest {
                    timeout_us: Some(500),
                    backend: Some(EngineBackend::Lazy),
                    ..QueryRequest::new(7, 3)
                },
                trace_id: Some(0xdeadbeef12345678),
            }),
            Request::Trace(TraceRequest {
                query: QueryRequest::new(1, 1),
                trace_id: Some(u64::MAX),
            }),
        ];
        for request in cases {
            assert_eq!(Request::parse(&request.to_line()), Ok(request));
        }
    }

    #[test]
    fn query_backend_operand_parses_with_and_without_timeout() {
        let Ok(Request::Query(q)) = Request::parse("QUERY 0 2 auto") else { panic!() };
        assert_eq!((q.timeout_us, q.backend), (None, Some(EngineBackend::Auto)));
        let Ok(Request::Query(q)) = Request::parse("QUERY 0 2 750 lazy") else { panic!() };
        assert_eq!((q.timeout_us, q.backend), (Some(750), Some(EngineBackend::Lazy)));
    }

    #[test]
    fn unknown_backend_error_lists_every_valid_method() {
        let err = Request::parse("QUERY 0 2 frob").expect_err("unknown backend must not parse");
        assert!(err.contains("unknown backend"), "{err}");
        for backend in EngineBackend::ALL {
            assert!(err.contains(backend.cli_name()), "{err} misses {}", backend.cli_name());
        }
        assert!(err.contains("auto"), "{err}");
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("", "empty"),
            ("FROB 1 2", "unknown verb"),
            ("QUERY", "needs"),
            ("QUERY 1", "needs"),
            ("QUERY x 2", "bad user"),
            ("QUERY 1 -3", "bad k"),
            ("QUERY 1 2 fast", "unknown backend"),
            ("QUERY 1 2 3 4", "unknown backend"),
            ("QUERY 1 2 3 lazy extra", "trailing"),
            ("EXPLAIN", "needs"),
            ("EXPLAIN 1 2 frob", "unknown backend"),
            ("PING PONG", "trailing"),
            ("UPDATE", "needs an operation"),
            ("UPDATE FROB 1", "unknown update op"),
            ("UPDATE ADD_EDGE 1", "needs"),
            ("RELOAD NOW", "trailing"),
            ("PREPARE 2", "trailing"),
            ("COMMIT fast", "trailing"),
            ("EPOCH 3", "trailing"),
            ("SYNC", "needs <from_epoch>"),
            ("SYNC x", "bad from_epoch"),
            ("SYNC 1 2", "trailing"),
            ("DISCARD all", "trailing"),
            ("TRACE", "needs"),
            ("TRACE 1", "needs"),
            ("TRACE 1 2 frob", "unknown backend"),
            ("TRACE 1 2 id=zz", "bad trace id"),
            ("TRACE 1 2 id=", "bad trace id"),
            ("TRACE 1 2 id=ff extra", "unknown backend"),
            ("METRICS now", "trailing"),
            ("FLIGHT all", "trailing"),
            ("SERIES", "needs <field>"),
            ("SERIES lat_hist hourly", "bad series resolution"),
            ("SERIES lat_hist fast extra", "trailing"),
            ("HEALTH check", "trailing"),
            ("CAPTURE", "needs <on|off|rotate>"),
            ("CAPTURE maybe", "bad capture action"),
            ("CAPTURE on off", "trailing"),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line:?} -> {err:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Pong,
            Response::Bye,
            Response::Busy,
            Response::Err { code: ErrorCode::Deadline, message: "deadline exceeded".into() },
            Response::Ok(QueryReply {
                user: 0,
                k: 2,
                tags: vec![2, 3],
                spread: 2.0575,
                cached: true,
                us: 1234,
            }),
            Response::Ok(QueryReply {
                user: 5,
                k: 1,
                tags: vec![],
                spread: 1.0,
                cached: false,
                us: 7,
            }),
            Response::Explained(ExplainReply {
                user: 0,
                k: 2,
                backend: EngineBackend::Exact,
                predicted_us: 4,
                actual_us: 21,
                us: 90,
                degraded: false,
                tags: vec![2, 3],
                spread: 2.0575,
                rejected: vec![
                    RejectedPlan {
                        backend: EngineBackend::Lazy,
                        predicted_us: Some(55),
                        reason: RejectReason::Costlier,
                    },
                    RejectedPlan {
                        backend: EngineBackend::IndexEstPlus,
                        predicted_us: None,
                        reason: RejectReason::MissingArtifact,
                    },
                ],
            }),
            Response::Explained(ExplainReply {
                user: 3,
                k: 1,
                backend: EngineBackend::Tim,
                predicted_us: 12,
                actual_us: 9,
                us: 30,
                degraded: true,
                tags: vec![],
                spread: 1.0,
                rejected: vec![RejectedPlan {
                    backend: EngineBackend::Lazy,
                    predicted_us: Some(900_000),
                    reason: RejectReason::OverBudget,
                }],
            }),
            Response::Stats(StatsReply::new([
                ("requests".to_string(), "64".to_string()),
                ("cache_hits".to_string(), "12".to_string()),
            ])),
            Response::Updated { epoch: 3, pending: 2 },
            Response::Reloaded(ReloadReply {
                epoch: 4,
                folded: 2,
                resampled: 120,
                reused: 440,
                full: false,
            }),
            Response::Reloaded(ReloadReply {
                epoch: 9,
                folded: 1,
                resampled: 560,
                reused: 0,
                full: true,
            }),
            Response::Prepared(ReloadReply {
                epoch: 3,
                folded: 2,
                resampled: 40,
                reused: 360,
                full: false,
            }),
            Response::Epoch(7),
            Response::Synced(SyncBundle {
                base_epoch: 1,
                epoch: 3,
                records: vec![
                    pitex_live::CommittedBatch { epoch: 2, ops: vec![UpdateOp::AddUser] },
                    pitex_live::CommittedBatch { epoch: 3, ops: vec![] },
                ],
                pending: vec![UpdateOp::DetachTag { tag: 1 }],
            }),
            Response::Synced(SyncBundle {
                base_epoch: 5,
                epoch: 5,
                records: vec![],
                pending: vec![],
            }),
            Response::Discarded { epoch: 4, dropped: 3 },
            Response::Traced(TraceReply {
                trace_id: 0xabc123,
                user: 0,
                k: 2,
                tags: vec![2, 3],
                spread: 2.0575,
                cached: false,
                us: 1234,
                spans: vec![
                    Span { name: "plan".into(), start_us: 0, dur_us: 10 },
                    Span { name: "queue".into(), start_us: 10, dur_us: 40 },
                    Span { name: "shard.execute".into(), start_us: 50, dur_us: 1100 },
                ],
            }),
            Response::Traced(TraceReply {
                trace_id: u64::MAX,
                user: 5,
                k: 1,
                tags: vec![],
                spread: 1.0,
                cached: true,
                us: 9,
                spans: vec![],
            }),
            Response::Flight(FlightReply {
                recorded: 1000,
                slow_count: 2,
                entries: vec![
                    FlightWireEntry {
                        trace_id: 7,
                        verb: "QUERY".into(),
                        user: 3,
                        k: 2,
                        backend: "lazy".into(),
                        outcome: "ok".into(),
                        us: 812,
                        ts_us: 1_722_000_000_000_000,
                    },
                    FlightWireEntry {
                        trace_id: 8,
                        verb: "TRACE".into(),
                        user: 4,
                        k: 1,
                        backend: "auto".into(),
                        outcome: "busy".into(),
                        us: 3,
                        ts_us: 1_722_000_000_000_812,
                    },
                ],
                slow: vec![FlightWireEntry {
                    trace_id: 9,
                    verb: "QUERY".into(),
                    user: 1,
                    k: 5,
                    backend: "exact".into(),
                    outcome: "ok".into(),
                    us: 95_000,
                    ts_us: 0,
                }],
            }),
            Response::Flight(FlightReply::default()),
            Response::Series(SeriesReply {
                field: "requests".into(),
                res: SeriesRes::Fast,
                tick_ms: 1000,
                window_ticks: 1,
                kind: SeriesKind::Counter,
                points: vec!["0".into(), "12".into(), "9".into()],
            }),
            Response::Series(SeriesReply {
                field: "lat_hist".into(),
                res: SeriesRes::Mid,
                tick_ms: 1000,
                window_ticks: 10,
                // One empty histogram window (`-`) followed by a populated
                // one — the case `n=` exists to disambiguate.
                kind: SeriesKind::Hist,
                points: vec!["-".into(), "3:4,10:2".into()],
            }),
            Response::Series(SeriesReply {
                field: "lat_p99_us".into(),
                res: SeriesRes::Slow,
                tick_ms: 250,
                window_ticks: 60,
                kind: SeriesKind::Gauge,
                points: vec![],
            }),
            Response::Health(HealthVerdict {
                status: SloStatus::Ok,
                worst: "-".into(),
                slos: vec![SloVerdict {
                    name: "availability".into(),
                    status: SloStatus::Ok,
                    window: "-".into(),
                    burn: 0.25,
                    field: "errors".into(),
                    origin: "self".into(),
                }],
            }),
            Response::Health(HealthVerdict {
                status: SloStatus::Page,
                worst: "shard1".into(),
                slos: vec![
                    SloVerdict {
                        name: "latency".into(),
                        status: SloStatus::Page,
                        window: "fast".into(),
                        burn: 42.5,
                        field: "lat_hist".into(),
                        origin: "shard1".into(),
                    },
                    SloVerdict {
                        name: "availability".into(),
                        status: SloStatus::Warn,
                        window: "slow".into(),
                        burn: 1.75,
                        field: "router_errors".into(),
                        origin: "router".into(),
                    },
                ],
            }),
            Response::Health(HealthVerdict {
                status: SloStatus::Ok,
                worst: "-".into(),
                slos: vec![],
            }),
            Response::Captured { enabled: true, recorded: 512, dropped: 0 },
            Response::Captured { enabled: false, recorded: 0, dropped: 3 },
        ];
        for response in cases {
            let line = response.to_line();
            assert_eq!(Response::parse(&line), Ok(response), "{line}");
        }
    }

    #[test]
    fn error_codes_cover_the_wire_names() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownUser,
            ErrorCode::BadK,
            ErrorCode::Deadline,
            ErrorCode::Internal,
            ErrorCode::BadUpdate,
            ErrorCode::AdminDenied,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("NOPE"), None);
    }

    #[test]
    fn stats_reply_typed_getters() {
        let line = "STATS qps=123.5 requests=64 cache_hit_rate=0.75";
        let Response::Stats(stats) = Response::parse(line).unwrap() else {
            panic!("not a stats reply")
        };
        assert_eq!(stats.get_u64("requests"), Some(64));
        assert_eq!(stats.get_f64("qps"), Some(123.5));
        assert_eq!(stats.get_f64("cache_hit_rate"), Some(0.75));
        assert_eq!(stats.get("missing"), None);
    }

    #[test]
    fn err_with_empty_message_parses() {
        assert_eq!(
            Response::parse("ERR INTERNAL"),
            Ok(Response::Err { code: ErrorCode::Internal, message: String::new() })
        );
    }
}
