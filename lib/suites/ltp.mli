(** An LTP-shaped regression suite (Linux Test Project).

    The paper's related work names LTP alongside xfstests as the other
    hand-written regression corpus.  LTP's style differs from xfstests in
    a way that shows up directly in input/output coverage: its per-syscall
    testcases ([open01]..[openNN], [write01].., ...) are {e errno-driven} —
    each case sets up one documented failure condition and asserts the
    exact error code — with comparatively little data-path volume.

    The simulator reproduces that signature: systematic probes for every
    reachable manual-page errno of each modeled syscall, small success
    loops, low absolute frequencies.  Against xfstests it demonstrates
    the paper's point that different testers over- and under-test
    different partitions: LTP's {e output} coverage rivals xfstests' at a
    tiny fraction of the events, while its input-size coverage is far
    narrower. *)

val mount : string
(** ["/mnt/ltp"] *)

val comm : string

type stats = {
  testcases_run : int;
  events_total : int;
  events_kept : int;
}

val run :
  ?seed:int -> ?scale:float -> ?faults:Iocov_vfs.Fault.t list ->
  ?config:Iocov_vfs.Config.t ->
  ?sink:(Iocov_trace.Event.t -> unit) ->
  ?dispatch:(Iocov_trace.Event.t -> unit) ->
  ?coverage:Iocov_core.Coverage.t -> unit -> string list * stats
(** Run the suite; returns oracle failures (each testcase asserts its
    expected errno) and statistics.  Coverage accumulates through the
    mount-point filter into [coverage] when one is given; without it
    (and without [dispatch]) no filter runs and [events_kept] stays
    0.

    [dispatch] hands every raw event to an external analysis pipeline
    (e.g. [Iocov_par.Replay.sink]) {e instead of} the inline
    filter-and-observe path: [coverage] is left untouched and
    [events_kept] stays 0 — the caller takes both from the pipeline's
    merge. *)
