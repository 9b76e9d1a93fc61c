(** An xfstests-shaped regression suite (the paper runs its 706 generic +
    308 Ext4-specific tests).

    xfstests is a large hand-written corpus accreted over decades; its
    trace signature is what the paper's figures show: millions of opens
    dominated by [O_RDONLY], broad (but not complete) flag coverage,
    write sizes from 0 up to 258 MiB, and a wide error-code footprint.
    This simulator reproduces that corpus as ~20 parameterized test
    archetypes — sequential/random/vectored I/O, boundary writes and
    truncates, mode and xattr cycles, symlink loops, permission and
    read-only-mount probes, fd and space exhaustion, environment-error
    injection — each instantiated per test index with its own scratch
    file system, as real xfstests mounts a scratch device per test.

    Every test asserts its expected outcomes, so a run against a correct
    file system reports zero failures, and a run against a fault-injected
    one reports exactly the deviations the suite's input coverage can
    see. *)

val mount : string
(** ["/mnt/test"] — the xfstests TEST_DIR. *)

val comm : string

val generic_tests : int
(** 706 *)

val ext4_tests : int
(** 308 *)

type stats = {
  tests_run : int;
  events_total : int;
  events_kept : int;
}

val run :
  ?seed:int -> ?scale:float -> ?faults:Iocov_vfs.Fault.t list ->
  ?config:Iocov_vfs.Config.t ->
  ?sink:(Iocov_trace.Event.t -> unit) ->
  ?dispatch:(Iocov_trace.Event.t -> unit) ->
  ?per_test:(string -> Iocov_core.Coverage.t -> unit) ->
  ?coverage:Iocov_core.Coverage.t -> unit -> string list * stats
(** Run the whole suite into [coverage] (through the [/mnt/test]
    mount-point filter).  The filter runs only for a reader: with
    neither [coverage] nor [per_test] (nor [dispatch]) it is skipped
    and [events_kept] stays 0.  [scale] multiplies inner-loop iteration counts;
    at 1.0 a run produces a few million traced syscalls.  Returns oracle
    failures (empty on a correct file system) and statistics.

    [dispatch] hands every raw event to an external analysis pipeline
    (e.g. [Iocov_par.Replay.sink]) {e instead of} the inline
    filter-and-observe path: [coverage] is left untouched and
    [events_kept] stays 0 — the caller takes both from the pipeline's
    merge.  Mutually exclusive with [per_test]
    ([Invalid_argument]). *)
