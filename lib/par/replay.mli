(** Sharded parallel trace analysis — the execution strategy of the
    streaming pipeline.

    This module is the {e engine}, not the front door: consumers build
    pipelines declaratively with [Iocov_pipe] (DESIGN.md §13) — one
    {!Iocov_pipe.Driver} owns jobs, sharding, supervision,
    checkpointing, and error budgets for live suite runs, trace replay,
    and reporting alike — and that driver executes through the entry
    points below.  Call them directly only when testing the engine
    itself.

    The pipeline: a producer (the calling domain) feeds batches of
    work through a bounded {!Chan} to [jobs] worker shards, each of
    which filters with the shared immutable {!Iocov_trace.Filter.t}
    and accumulates into its own private {!Iocov_core.Coverage.t}.
    Shard accumulators are merged in shard order when the pool joins.

    {b Determinism contract.}  Coverage accumulation is commutative
    and associative ({!Iocov_core.Coverage.merge_into}), so the merged
    result is byte-identical to a sequential replay of the same trace
    regardless of job count, batch size, counter backend, or how the
    scheduler spread batches over shards — property-tested in
    [test/test_par.ml] and [test/test_dense.ml].
    Global metric counter totals are likewise identical: shards
    accumulate unmetered and the merged accumulator is credited once
    via {!Iocov_core.Coverage.meter_counts}.  Only timing (span
    durations, shard-to-batch assignment) varies run to run.

    With [jobs = 1] no domain is spawned and no channel is created:
    everything runs inline on the caller, so [--jobs 1] {e is} the
    sequential path.

    {b Fault tolerance} (DESIGN.md §12).  Three layers compose:
    {ul
    {- {e ingestion}: [?ingest] selects strict (first defect fails the
       run with its position) or lenient (skip, resync, account — up to
       an error budget) handling of corrupt binary records and
       unparsable text lines;}
    {- {e supervision}: each work batch runs as a retry-safe
       prepare/commit pair; a worker exception is retried with
       {!Pool.backoff}, an exhausted batch is abandoned (fatal in
       strict mode, accounted in lenient), and a {!Pool.Shard_killed}
       ends one shard while its queue drains to the survivors;}
    {- {e checkpointing}: [?checkpoint] freezes cursor + coverage
       periodically so [?resume] can continue a crashed run with a
       byte-identical final report.}}
    Every loss is tallied in the outcome's [completeness] ledger. *)

type counters =
  | Dense
      (** Shards count into {!Iocov_core.Coverage.Dense} — flat integer
          arrays indexed by compiled {!Iocov_core.Plan} cell IDs,
          allocation-free observe, O(cells) merge.  Converted losslessly
          to the reference shape at merge time; the default. *)
  | Reference
      (** Shards use the hashed-histogram {!Iocov_core.Coverage.t}
          directly — the differential oracle for the dense path. *)

type ingest = Iocov_trace.Binary_io.mode =
  | Strict
  | Lenient of Iocov_util.Anomaly.budget
      (** Re-exported {!Iocov_trace.Binary_io.mode}: one value governs
          both the binary decoder's corruption handling and the
          pipeline's treatment of unparsable text lines and abandoned
          batches. *)

type chaos = shard:int -> batch:int -> unit
(** A fault-injection hook, called at the start of every batch attempt
    (including retries) with the shard index and the shard-local batch
    number.  Raising any exception exercises the retry path; raising
    {!Pool.Shard_killed} kills the shard.  Test-only. *)

type outcome = {
  coverage : Iocov_core.Coverage.t;  (** merged across shards *)
  events : int;   (** trace records analyzed (before filtering) *)
  kept : int;     (** records that passed the filter *)
  dropped : int;  (** [events - kept] *)
  shards : int;   (** worker count actually used *)
  batches : int;  (** work batches processed *)
  shard_events : int array;
      (** per-shard record counts, indexed by shard.  Scheduling
          dependent — reported for observability, excluded from the
          determinism contract. *)
  completeness : Iocov_util.Anomaly.completeness;
      (** what was read, skipped, retried, and lost; clean on a
          fully-successful strict run *)
}

val default_batch : int
(** Events per work batch when [?batch] is omitted (1024). *)

type stage =
  unit -> (Iocov_trace.Event.t -> Iocov_trace.Event.t option) * (unit -> unit)
(** A compiled per-record stage chain, applied {e after} the mount
    filter: the compiled form of an [Iocov_pipe.Stage] chain.  Each
    call makes a fresh instance — a step ([None] drops the record) and
    a [credit] that flushes the meter counts the step has tallied; the
    engine credits once per batch.  The chain may be shared across
    domains, an instance may not.  Steps must be pure and
    deterministic (supervision may re-run one after an exception).
    Omitted, the engine behaves exactly as before the pipe layer
    existed — which is what keeps the byte-identical coverage
    contract. *)

val stage_batch : stage -> Iocov_trace.Event.t list -> Iocov_trace.Event.t list
(** The batch form: one fresh instance over the list, credited once.
    What the channel path's worker shards run. *)

type view = {
  v_cells : int -> int;  (** observation count by {!Iocov_core.Plan} cell id *)
  v_events : int;        (** events analyzed so far *)
}
(** A read-only window onto an accumulator: cells are read {e in place}
    (an array index on the dense backend), so consuming a view never
    copies or converts coverage on the hot path.  Valid only until the
    next event is analyzed — consume it inside the callback. *)

val view_of_coverage : Iocov_core.Coverage.t -> events:int -> view
(** View a merged (reference) accumulator — how the driver serves the
    final progress snapshot at any job count. *)

type watch = pushed:int -> peek:(unit -> view option) -> unit
(** The producer-side progress hook (the [--progress] sink's feed):
    called after every pushed work batch with the cumulative count of
    records pushed and a {e lazy} [peek].  At [jobs = 1], [peek ()]
    yields a {!view} of the inline shard's accumulation so far; for
    sharded runs it returns [None] (worker accumulators are
    domain-private until join), so consumers degrade to producer-side
    throughput figures.  Called on the producer domain; must not
    raise. *)

val analyze_events :
  ?pool:Pool.t -> ?batch:int -> ?counters:counters -> ?ingest:ingest ->
  ?policy:Pool.policy -> ?chaos:chaos -> ?watch:watch ->
  ?filter:Iocov_trace.Filter.t -> ?stage:stage -> Iocov_trace.Event.t list -> outcome
(** Replay an in-memory event list.  [pool] defaults to a fresh
    {!Pool.create}[ ()]; [batch] must be positive; [counters] defaults
    to [Dense]; [ingest] to [Strict]; [policy] to
    {!Pool.default_policy}.  [filter] omitted keeps every record;
    [stage] runs after the filter. *)

val analyze_channel :
  ?pool:Pool.t -> ?batch:int -> ?counters:counters -> ?ingest:ingest ->
  ?policy:Pool.policy -> ?chaos:chaos -> ?watch:watch -> ?limit:int ->
  ?filter:Iocov_trace.Filter.t -> ?stage:stage -> in_channel -> (outcome, string) result
(** Replay a trace from a channel, auto-detecting binary
    ({!Iocov_trace.Binary_io}) versus text ({!Iocov_trace.Format_io}).
    Binary records are decoded in batches on the calling domain (the
    string table makes decode inherently sequential) and analyzed on
    the shards; text lines are shipped raw and parsed on the shards.
    Runs in O(capacity × batch) memory regardless of trace length.
    In strict mode, parse and decode failures report the
    lowest-numbered offending record, matching the sequential reader's
    error.  [limit] stops after that many records (for sampling and
    for deterministic interrupted-run tests). *)

type checkpoint_spec = {
  ckpt_path : string;   (** where to write (atomically, tmp + rename) *)
  ckpt_every : int;     (** events between checkpoints; must be positive *)
}

val analyze_file :
  ?pool:Pool.t -> ?batch:int -> ?counters:counters -> ?ingest:ingest ->
  ?policy:Pool.policy -> ?chaos:chaos -> ?watch:watch ->
  ?checkpoint:checkpoint_spec -> ?resume:string * Checkpoint.t -> ?limit:int ->
  ?filter:Iocov_trace.Filter.t -> ?stage:stage -> string -> (outcome, string) result
(** {!analyze_channel} on a file path, plus checkpointed replay.

    [checkpoint] periodically freezes the decode cursor and the
    accumulated coverage to a file; it requires a binary trace and
    [--jobs 1] (only the inline path has a single deterministic cursor
    to freeze), and a final checkpoint is written when the feed ends.
    [resume = (path, ck)] continues from a loaded {!Checkpoint} — at
    {e any} job count and either counter backend — and folds the
    checkpointed prefix into the outcome; the final report is
    byte-identical to an uninterrupted run's.  When both are given, the
    new checkpoints carry the combined progress, so a run can crash and
    resume repeatedly. *)

(** {1 Push-based sessions}

    For live sources (suite tracers) that emit one event at a time.
    At [jobs = 1] each event is filtered (through a session-local
    {!Iocov_trace.Filter.Memo}), staged and counted as it arrives;
    batches remain only as the metering unit, so metric totals equal
    the channel path's.  Sharded sessions buffer events into batches
    and dispatch them to the shards.  {!complete} joins and merges. *)

type session

val session :
  ?pool:Pool.t -> ?batch:int -> ?counters:counters -> ?ingest:ingest ->
  ?policy:Pool.policy ->
  ?filter:Iocov_trace.Filter.t -> ?stage:stage -> unit -> session
(** At [jobs = 1] supervision is per event: a stage step that raises is
    retried under [policy]; when the retries run out, the rest of that
    event's batch is abandoned — an accounted loss in lenient mode, a
    run error in strict mode — while events already counted stay
    counted. *)

val sink : session -> Iocov_trace.Event.t -> unit

val progress : session -> (Iocov_core.Coverage.t * int) option
(** The coverage accumulated so far with the number of events analyzed
    — a fresh copy, safe to persist.  Inline sessions (jobs = 1) only;
    [None] for sharded sessions, whose accumulators are private to
    their worker domains.  The pipe driver's live-checkpointing hook.
    Never cuts a batch: batch boundaries (and so the metric totals) do
    not depend on how often progress is read. *)

val progress_view : session -> view option
(** {!view} the inline accumulator in place — the cheap variant for
    progress snapshots, which only read cell counts.  [None] for
    sharded sessions. *)

val complete : session -> (outcome, string) result
(** Credit or dispatch the partial batch, close the channel, join the
    workers, and merge.  Must be called exactly once per session.
    Errors (strict stage failures, exhausted error budgets) are values,
    never exceptions — the pipe driver's shape. *)

val finish : session -> outcome
(** {!complete}, unwrapping [Error] into [Failure]. *)
