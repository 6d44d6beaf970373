(** Cross-layer tracing and cycle attribution.

    The paper's evaluation (Table 1) is a qualitative list of the
    hardware/OS actions each protection model performs; the simulator's
    [Hw.Metrics] only reports end-of-run aggregates. This subsystem turns
    those counters into per-action evidence: every [SYSTEM] operation
    executed on an instrumented machine becomes a {e span} whose
    [Metrics] delta (cycles, misses, faults, …) is attributed to the
    operation, a periodic sampler records time-series of miss ratios and
    structure occupancy, and the result can be rendered as a table,
    [sasos-obs/1] JSON, or a Chrome [trace_event] file loadable in
    Perfetto / [chrome://tracing].

    {2 Cost discipline}

    Collection is always compiled in but strictly pay-for-use:

    - the {!disabled} collector carries no state and its entry points are
      no-op closures behind a function-pointer record, so a hot loop that
      consults the ambient collector allocates nothing (verified by the
      "disabled allocates nothing" guardrail in [test/test_obs.ml]);
    - machines are only wrapped with span instrumentation when the
      ambient collector is enabled ([Sys_select.make]), so the disabled
      access path is {e exactly} the uninstrumented one;
    - when enabled, an operation span costs two counter snapshots (into
      preallocated scratch, alloc-free) and one [Metrics.diff] per
      completed operation.

    {2 Time}

    Spans are timestamped in {e simulated cycles} on a per-collector
    virtual clock (the sum of completed-span cycle deltas), never in wall
    time, so output is byte-identical across runs and [--jobs] values.
    Wall time only appears in the [wall_ns] summary field via the
    injectable [clock] (default: a constant-zero clock). *)

type t
(** A collector: either {!disabled} or the product of {!create}. *)

val disabled : t
(** The inert collector: all entry points are no-ops, no state is
    retained, nothing allocates. This is the ambient default. *)

val create :
  ?sample_every:int ->
  ?ring_capacity:int ->
  ?max_phase_events:int ->
  ?max_flow_events:int ->
  ?track:int ->
  ?label:string ->
  ?clock:(unit -> int64) ->
  unit ->
  t
(** An enabled collector. [sample_every] (default 1000) is the number of
    simulated accesses between sampler points, counted {e per collector,
    per machine instance}: each registered machine keeps its own
    access countdown against this collector's threshold, so in a sharded
    run where every shard owns its own collector, a 1-shard and a
    4-shard run sample each shard's time-series at the same density
    (one point per [sample_every] accesses {e on that shard}), rather
    than diluting a global budget across shards. [ring_capacity]
    (default 512) bounds the retained samples (oldest evicted first);
    [max_phase_events] (default 4096) bounds the retained per-instance
    phase events (further events still aggregate, but are dropped from
    the event log and counted in [phase_events_dropped]);
    [max_flow_events] (default 65536) bounds the retained flow
    begin/end records the same way (overflow counted in
    [flows_dropped]). [track] (default [-1] = untracked) gives the
    collector a Chrome-trace process identity — shard id in sharded
    runs — and [label] a human-readable process name for that track.
    [clock] is a monotonic nanosecond clock used only for the [wall_ns]
    summary field; it defaults to [fun () -> 0L] so that profile output
    is byte-identical across runs.
    @raise Invalid_argument on non-positive sizes. *)

val enabled : t -> bool

(** {2 Ambient collector}

    Experiments and the conformance harness build their machines
    internally, so the collector travels implicitly: [with_ambient]
    installs a collector for the current domain (domain-local state, so
    parallel runner workers don't interfere), and [Sys_select.make]
    consults {!ambient} to decide whether to wrap the machine it
    builds. *)

val ambient : unit -> t
(** The current domain's ambient collector; {!disabled} unless inside
    {!with_ambient}. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** [with_ambient t f] runs [f] with [t] as the ambient collector,
    restoring the previous one on exit (also on exception). *)

(** {2 Phase spans}

    Phases are named, nestable regions of the run's timeline — an
    experiment section ("sweep"), a replayed trace event kind
    ("trace:access") — measured on the collector's virtual cycle clock.
    On {!disabled} they are no-ops. *)

val phase_begin : t -> string -> unit

val phase_end : t -> string -> unit
(** @raise Invalid_argument on misnesting: no phase open, or the name
    does not match the innermost open phase. *)

val with_phase : t -> string -> (unit -> 'a) -> 'a
(** Exception-safe [phase_begin]/[phase_end] pair. *)

(** {2 Operation spans}

    A [machine] handle attributes [SYSTEM]-operation costs to one
    simulated machine. Handles exist only for enabled collectors;
    [Obs_instrument] (lib/machine) creates them when it wraps a machine,
    so disabled runs never reach these entry points. *)

type machine

val register_machine :
  t -> model:string -> metrics:Sasos_hw.Metrics.t -> probe:Sasos_hw.Probe.t ->
  machine
(** Register one machine instance. [metrics] is the machine's live
    counter block (read, never written); [probe] its occupancy gauge
    sink. @raise Invalid_argument on a disabled collector. *)

val op_begin : machine -> string -> unit
(** Open an operation span: snapshots the machine's counters into
    preallocated scratch (no allocation).
    @raise Invalid_argument if a span is already open on this machine. *)

val op_end : machine -> string -> unit
(** Close the span: attributes the counter delta since [op_begin] to the
    named operation and advances the collector's virtual clock by the
    cycle delta. @raise Invalid_argument on misnesting (no span open, or
    a different name). *)

val tick : machine -> unit
(** One simulated access completed — the sampler heartbeat. Every
    [sample_every] ticks {e of this machine instance} the collector
    records a sample (windowed miss ratios, fault rate, shard gauges,
    occupancy, cycles-per-access) into the ring buffer. The countdown is
    per machine handle, so each instrumented machine contributes points
    at its own access density regardless of how many machines share the
    collector. *)

(** {2 Flow events and shard gauges}

    Cross-collector message tracing for the sharded rig: when shard A
    emits a mailbox message applied by shard B, A records {!flow_out}
    and B records {!flow_in} under the same caller-chosen id, and
    {!to_chrome} renders the pair as a Chrome flow arrow from A's
    emission span to B's application span. All are no-ops on
    {!disabled}. *)

val flow_out : t -> id:int -> name:string -> unit
(** Record a flow begin at the current virtual clock. Retained up to
    [max_flow_events] per collector (shared budget with {!flow_in});
    overflow increments [flows_dropped]. *)

val flow_in : t -> id:int -> name:string -> unit
(** Record the matching flow end at the current virtual clock of the
    {e receiving} collector. *)

val set_gauges : t -> backlog:int -> proxies:int -> skew:float -> unit
(** Publish the shard-level gauges copied into every subsequent sample:
    mailbox backlog depth, proxy-domain count, and load-imbalance skew
    (this shard's access share relative to the mean shard). *)

(** {2 Summaries} *)

type op_row = {
  scope : string;  (** machine model name *)
  op : string;  (** operation name, e.g. ["access"] *)
  count : int;
  delta : Sasos_hw.Metrics.t;  (** summed counter deltas of all spans *)
}

type phase_row = { phase : string; p_count : int; p_cycles : int }

type phase_event = {
  pname : string;
  ts : int;  (** virtual-clock cycles at [phase_begin] *)
  dur : int;  (** virtual-clock cycles spent inside *)
  depth : int;  (** nesting depth, outermost = 0 *)
}

type flow_event = {
  fl_id : int;  (** caller-chosen id matching a {!flow_out}/{!flow_in} pair *)
  fl_name : string;
  fl_ts : int;  (** virtual-clock cycles on the recording collector *)
}

type sample = {
  s_scope : string;  (** model of the machine that crossed the threshold *)
  s_clock : int;  (** virtual clock when taken *)
  s_accesses : int;  (** cumulative accesses on that machine *)
  s_cycles : int;  (** cumulative cycles on that machine *)
  d_accesses : int;  (** accesses in the window since the last sample *)
  d_cycles : int;
  cache_mr : float;  (** windowed miss ratios; 0 when no probes *)
  plb_mr : float;
  tlb_mr : float;
  pg_mr : float;
  fault_rate : float;
      (** windowed (protection + page) faults per access *)
  g_backlog : int;  (** last {!set_gauges} values at sampling time *)
  g_proxies : int;
  g_skew : float;
  occupancy : int array;  (** per {!Sasos_hw.Probe.structure} slot *)
}

val peek_samples : t -> sample list
(** The ring buffer's current contents, oldest first — readable mid-run
    (unlike {!summarize}, open spans are fine), which is what the live
    dashboard polls between rounds. [[]] on {!disabled}. *)

type summary = {
  sample_every : int;
  ring_capacity : int;
  machines : (string * int) list;  (** model → instances, sorted *)
  total_cycles : int;
      (** sum of the registered machines' final cycle counters; equals
          the sum of [ops] cycle deltas when every operation ran under a
          span *)
  clock : int;  (** final virtual clock *)
  ops : op_row list;  (** sorted by (scope, op) *)
  phases : phase_row list;  (** sorted by name *)
  phase_events : phase_event list;  (** chronological *)
  phase_events_dropped : int;
  flows_out : flow_event list;  (** emission order *)
  flows_in : flow_event list;  (** application order *)
  flows_dropped : int;
  samples : sample list;  (** oldest first; at most [ring_capacity] *)
  samples_seen : int;  (** total taken, including evicted *)
  cpa_hist : int array;
      (** cycles-per-access histogram, deci-cycles in {!cpa_bucket_width}
          buckets plus a final overflow bucket *)
  wall_ns : int64;
  track : int;  (** the collector's [track], [-1] = untracked *)
  label : string;  (** the collector's [label], [""] = none *)
  tracks : summary list;
      (** per-track sections when this summary came from {!merge_tracks};
          [[]] for a leaf or {!merge} result *)
}

val cpa_buckets : int
val cpa_bucket_width : int
(** The cycles-per-access histogram records [10 * d_cycles / d_accesses]
    per sample into [cpa_buckets] buckets of [cpa_bucket_width]
    deci-cycles plus one overflow bucket. *)

val summarize : t -> summary
(** Snapshot the collector. @raise Invalid_argument if disabled or if a
    phase or operation span is still open. *)

val merge : summary list -> summary
(** Deterministic aggregation for parallel runs: merge worker summaries
    {e in a fixed order} (registry/script order, not completion order).
    Op rows and phases are summed by key; phase events and samples are
    concatenated with timestamps rebased onto one virtual timeline (each
    summary's clock starts where the previous one ended). Inputs are not
    mutated. @raise Invalid_argument on an empty list. *)

val merge_tracks : summary list -> summary
(** Parallel-timeline aggregation for per-shard collectors: unlike
    {!merge}, the inputs' virtual clocks are {e not} rebased — each
    summary keeps its own timeline and survives verbatim in the result's
    [tracks] field, ordered by track id. Aggregate tables (ops, phases,
    machines, histograms, totals) are summed; the merged [clock] is the
    max over tracks (the virtual makespan); top-level [phase_events] and
    flow lists are empty because that detail lives per track; merged
    samples are the per-track samples with scopes prefixed
    ["s<track>:"]. Sorting by track id makes the result a pure function
    of the track set: summaries collected from any worker schedule
    ([--jobs 1] or [N]) merge to byte-identical output.
    @raise Invalid_argument on an empty list, an untracked input
    ([track < 0]), a duplicate track id, or an input that is itself a
    track merge. *)

val render_table : summary -> string
(** Human-readable attribution: per-op cycle breakdown (share of total,
    key event counts), phase table, and sampler digest. *)

val to_json : ?indent:bool -> summary -> string
(** [sasos-obs/1] JSON document. Deterministic field order. The schema
    tag appears exactly once (top level); a {!merge_tracks} summary adds
    a [tracks] array of compact per-shard sections, and flow lists are
    emitted only when non-empty, so untracked output is unchanged. *)

val to_chrome : summary -> string
(** Chrome [trace_event] JSON (the [{"traceEvents": [...]}] envelope)
    loadable in Perfetto. A leaf summary renders as one process (pid 1,
    ["sasos"]): phase events on one track with their virtual-clock
    extents (cycles rendered as microseconds), per-op aggregate rows
    laid end-to-end on one track per machine model (so the sum of
    ["cat":"op"] durations equals [total_cycles]), and sampler series as
    counter events. A {!merge_tracks} summary renders one process {e per
    shard} (pid = track id, sorted via [process_sort_index]), each with
    its own phase/op/counter tracks plus a per-shard [gauges] counter,
    and every {!flow_out}/{!flow_in} pair becomes a Chrome flow arrow
    ([ph:"s"] → [ph:"f","bp":"e"]) from the emitting shard's round slice
    to the applying shard's round slice. *)
