(* The traced probe: per-layer cost of IOCov, timed from outside.

   It calls the public functions of each library layer with a monotonic
   clock around every call and [Gc] allocation deltas, keeps the
   totals in memory, and prints one JSON object of per-layer metrics
   when it is done.  Nothing inside the libraries is instrumented.

   Usage:
     probe.exe --suite xfstests|crashmonkey --home live|replay|serve|lattice
               --seed N --scale S --side-scale S' --dir DIR

   Every section runs on every call, so every traced run reports the
   whole table: the [--home] section at [--scale], the others at
   [--side-scale].  The replay and serve sections share one v3 trace
   of [--suite], written into [DIR].  The [home_*] keys describe the
   home section alone, for the residual and overhead rows (see [home]). *)

module Coverage = Iocov_core.Coverage
module Dense = Coverage.Dense
module Matrix = Coverage.Matrix
module Report = Iocov_core.Report
module Filter = Iocov_trace.Filter
module Event = Iocov_trace.Event
module Binary_io = Iocov_trace.Binary_io
module Config = Iocov_vfs.Config
module Engine = Iocov_crash.Engine
module Replay = Iocov_par.Replay
module Pool = Iocov_par.Pool
module Ledger = Iocov_pipe.Ledger
module Hub = Iocov_serve.Hub
module Runner = Iocov_suites.Runner
module Xfstests = Iocov_suites.Xfstests
module Crashmonkey = Iocov_suites.Crashmonkey

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_float (clock_ns ())

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("probe: " ^ msg); exit 1) fmt

let ok_or what = function Ok v -> v | Error e -> fail "%s: %s" what e

let median samples =
  match List.sort compare samples with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

(* --- metrics, in emission order; a later [put] of a name replaces it --- *)

let metrics : (string * float) list ref = ref []

let put name value =
  metrics := (name, value) :: List.remove_assoc name !metrics

(* What the home section reports for the two rows that check the trace.
   [wall_ns] is the wall of the section's timed layer calls and the glue
   between them, and [rows_ns] the sum of those calls: the difference is
   time no row accounts for.  Untimed re-runs made for subtraction rows
   (the plain [Runner.run], the per-point walls) are in neither.
   [traced_ns] is the traced run that does the work of one end-to-end
   pass, for the overhead of tracing it. *)
type home = { wall_ns : float; rows_ns : float; traced_ns : float; events : float }

(* --- live path: suite generation vs filter vs observe --- *)

(* All-float so the fields stay unboxed: updating them allocates
   nothing, which keeps the probe out of the words it measures. *)
type live_clocks = {
  mutable gen_ns : float;
  mutable gen_words : float;
  mutable filter_ns : float;
  mutable observe_ns : float;
  mutable observe_words : float;
  mutable seen : float;
  mutable kept : float;
  mutable last_ns : float;
  mutable last_words : float;
}

(* Run [suite] with a bench-owned [~dispatch].  The gap between two
   dispatch calls is suite generation ([suites] + [vfs.Fs] +
   [trace.Tracer], not separable from outside); inside a call,
   [Filter.keeps] and [observe] are timed on their own. *)
let instrumented_run ~suite ~seed ~scale ?config ~observe () =
  let filter, run =
    match suite with
    | Runner.Xfstests ->
      ( Filter.mount_point Xfstests.mount,
        fun dispatch ->
          fst (Xfstests.run ~seed ~scale ?config ~dispatch ~coverage:(Coverage.create ()) ()) )
    | Runner.Crashmonkey ->
      ( Filter.mount_point Crashmonkey.mount,
        fun dispatch ->
          fst (Crashmonkey.run ~seed ~scale ?config ~dispatch ~coverage:(Coverage.create ()) ()) )
    | Runner.Ltp -> fail "ltp is not a benchmark suite"
  in
  let c =
    { gen_ns = 0.; gen_words = 0.; filter_ns = 0.; observe_ns = 0.; observe_words = 0.;
      seen = 0.; kept = 0.; last_ns = 0.; last_words = 0. }
  in
  let dispatch (ev : Event.t) =
    let t0 = now () in
    let w0 = Gc.minor_words () in
    c.gen_ns <- c.gen_ns +. (t0 -. c.last_ns);
    c.gen_words <- c.gen_words +. (w0 -. c.last_words);
    c.seen <- c.seen +. 1.;
    let keep = Filter.keeps filter ev in
    let t1 = now () in
    c.filter_ns <- c.filter_ns +. (t1 -. t0);
    if keep then begin
      c.kept <- c.kept +. 1.;
      let w1 = Gc.minor_words () in
      (match ev.payload with
       | Event.Tracked call -> observe call ev.outcome
       | Event.Aux _ -> ());
      c.observe_words <- c.observe_words +. (Gc.minor_words () -. w1);
      c.observe_ns <- c.observe_ns +. (now () -. t1)
    end;
    c.last_words <- Gc.minor_words ();
    c.last_ns <- now ()
  in
  c.last_words <- Gc.minor_words ();
  c.last_ns <- now ();
  let failures = run dispatch in
  c.gen_ns <- c.gen_ns +. (now () -. c.last_ns);
  c.gen_words <- c.gen_words +. (Gc.minor_words () -. c.last_words);
  if failures <> [] then fail "oracle violations: %s" (List.hd failures);
  c

let live_section ~suite ~seed ~scale =
  let dense = Dense.create () in
  let t0 = now () in
  let c = instrumented_run ~suite ~seed ~scale ~observe:(Dense.observe dense) () in
  let traced_ns = now () -. t0 in
  put "suites.gen_ns_per_event" (c.gen_ns /. c.seen);
  put "suites.gen_words_per_event" (c.gen_words /. c.seen);
  put "trace.filter_ns_per_event" (c.filter_ns /. c.seen);
  put "trace.filter_keep_ratio" (c.kept /. c.seen);
  put "core.observe_ns_per_event" (c.observe_ns /. Float.max 1. c.kept);
  put "core.observe_words_per_event" (c.observe_words /. Float.max 1. c.kept);
  (* the whole pipeline, untimed inside: what is left after the three
     rows above is the pipe driver/stage/sink plumbing *)
  let gc0 = Gc.quick_stat () in
  let t1 = now () in
  let r = Runner.run ~seed ~scale suite in
  let runner_ns = now () -. t1 in
  let gc1 = Gc.quick_stat () in
  if r.Runner.failures <> [] then fail "Runner.run: oracle violations";
  let rows = c.gen_ns +. c.filter_ns +. c.observe_ns in
  put "pipe.driver_ns_per_event" ((runner_ns -. rows) /. c.seen);
  put "runtime.major_gcs"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  { wall_ns = traced_ns; rows_ns = rows; traced_ns; events = c.seen }

(* --- the v3 trace shared by the replay and serve sections --- *)

let write_trace ~suite ~seed ~scale path =
  let oc = open_out_bin path in
  let w = Binary_io.writer oc in
  let sink = Binary_io.sink w in
  let coverage = Coverage.create () in
  let t0 = now () in
  (match suite with
   | Runner.Xfstests -> ignore (Xfstests.run ~seed ~scale ~sink ~coverage ())
   | Runner.Crashmonkey -> ignore (Crashmonkey.run ~seed ~scale ~sink ~coverage ())
   | Runner.Ltp -> fail "ltp is not a benchmark suite");
  Binary_io.flush w;
  close_out oc;
  now () -. t0

let drain path step =
  let ic = open_in_bin path in
  let st = ok_or "open_stream" (Binary_io.open_stream ic) in
  let rec go n =
    let d = ok_or "drain" (step st) in
    if d.Binary_io.dr_produced = 0 then n else go (n + d.dr_produced)
  in
  let n = go 0 in
  close_in ic;
  n

let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let v = f () in
  let ns = now () -. t0 in
  (v, ns, Gc.minor_words () -. w0)

let replay_section ~path ~mount =
  let filter = Filter.mount_point mount in
  let keep_hint = Filter.matches_hint filter in
  let t0 = now () in
  let records, decode_ns, decode_words =
    timed (fun () ->
        drain path (fun st ->
            Binary_io.drain_batch st ~keep_hint ~on_call:(fun _ _ -> ()) ~max:8192 ()))
  in
  let dense = Dense.create () in
  let _, dense_ns, _ =
    timed (fun () ->
        drain path (fun st -> Binary_io.drain_batch_dense st ~keep_hint ~dense ~max:8192 ()))
  in
  let outcome, traced_ns, _ =
    timed (fun () ->
        ok_or "Replay.analyze_file"
          (Replay.analyze_file ~pool:(Pool.create ~jobs:1 ()) ~filter path))
  in
  if outcome.Replay.events <> records then
    fail "analyze_file read %d records, the decoder %d" outcome.events records;
  let cov = outcome.Replay.coverage in
  let _, ledger_ns, _ = timed (fun () -> (Ledger.digest cov, Ledger.bitmap cov)) in
  let _, report_ns, _ =
    timed (fun () ->
        Report.suite_summary ~name:"probe" cov ^ Report.untested_summary ~name:"probe" cov)
  in
  let wall_ns = now () -. t0 in
  let rows_ns = decode_ns +. dense_ns +. traced_ns +. ledger_ns +. report_ns in
  let n = float_of_int records in
  put "trace.decode_ns_per_event" (decode_ns /. n);
  put "trace.decode_words_per_event" (decode_words /. n);
  put "core.fused_observe_ns_per_event" ((dense_ns -. decode_ns) /. n);
  put "par.replay_ns_per_event" ((traced_ns -. dense_ns) /. n);
  put "pipe.ledger_digest_us" (ledger_ns /. 1e3);
  put "core.report_us" (report_ns /. 1e3);
  { wall_ns; rows_ns; traced_ns; events = n }

(* --- serve: the hub in process, on the same stream --- *)

let queries = [| Hub.Digest; Hub.Coverage; Hub.Tcd "open.flags" |]

let serve_section ~path ~mount =
  let hub = Hub.create ~mount () in
  let tenant = "probe" in
  let session = Hub.open_session hub ~tenant () in
  let ic = open_in_bin path in
  let st = ok_or "open_stream" (Binary_io.open_stream ic) in
  let ingest_ns = ref 0. and events = ref 0 and dirty = ref [] and i = ref 0 in
  let t0 = now () in
  let rec go () =
    let t = now () in
    let n = ok_or "Hub.ingest_step" (Hub.ingest_step session st) in
    ingest_ns := !ingest_ns +. (now () -. t);
    if n > 0 then begin
      events := !events + n;
      (* the first query after a commit publishes a fresh epoch *)
      let t = now () in
      ignore (ok_or "Hub.query" (Hub.query hub ~tenant queries.(!i mod 3)));
      dirty := (now () -. t) :: !dirty;
      incr i;
      go ()
    end
  in
  go ();
  Hub.close_session session;
  close_in ic;
  let clean =
    List.init 300 (fun k ->
        let t = now () in
        ignore (ok_or "Hub.query" (Hub.query hub ~tenant queries.(k mod 3)));
        now () -. t)
  in
  let wall_ns = now () -. t0 in
  let sum = List.fold_left ( +. ) 0. in
  put "serve.ingest_ns_per_event" (!ingest_ns /. float_of_int !events);
  put "serve.query_clean_us" (median clean /. 1e3);
  put "serve.query_dirty_us" (median !dirty /. 1e3);
  (match Hub.stats hub ~tenant with
   | Some st ->
     put "serve.publishes" (float_of_int st.Hub.st_publishes);
     put "serve.generation" (float_of_int st.st_generation);
     put "serve.cache_hit_ratio"
       (float_of_int st.st_cache_hits /. float_of_int (max 1 (st.st_cache_hits + st.st_cache_misses)))
   | None -> fail "Hub.stats: no tenant %s" tenant);
  { wall_ns; rows_ns = !ingest_ns +. sum !dirty +. sum clean; traced_ns = !ingest_ns;
    events = float_of_int !events }

(* --- lattice: per-point runs, matrix shards, crash engine --- *)

(* [~home]: this is the workload's own section, so its suite runs (all 18
   points) are the ones the generation rows describe. *)
let lattice_section ~seed ~scale ~home =
  let matrix = Matrix.create ~configs:Config.lattice_count in
  let points = ref [] and rows = ref 0. and traced = ref 0. and events = ref 0. in
  let gen_ns = ref 0. and gen_words = ref 0. in
  let matrix_ns = ref 0. and matrix_kept = ref 0. in
  Array.iter
    (fun (p : Config.point) ->
      let config = Runner.config_of_point p in
      let t = now () in
      let r = Runner.run ~seed ~scale ?config Runner.Crashmonkey in
      let point_ns = now () -. t in
      if r.Runner.failures <> [] then fail "point %s: oracle violations" p.pt_name;
      points := point_ns :: !points;
      let t = now () in
      let c =
        instrumented_run ~suite:Runner.Crashmonkey ~seed ~scale ?config
          ~observe:(Matrix.observe matrix ~config_id:p.pt_id) ()
      in
      traced := !traced +. (now () -. t);
      gen_ns := !gen_ns +. c.gen_ns;
      gen_words := !gen_words +. c.gen_words;
      matrix_ns := !matrix_ns +. c.observe_ns;
      matrix_kept := !matrix_kept +. c.kept;
      events := !events +. c.seen;
      rows := !rows +. c.gen_ns +. c.filter_ns +. c.observe_ns)
    Config.lattice;
  let crash = ref [] and states = ref 0 and raw = ref 0 in
  let t0 = now () in
  List.iter
    (fun mode ->
      List.iter
        (fun sc ->
          let config = Config.with_journal_mode mode Config.default in
          let t = now () in
          let rp = Engine.run_scenario ~config sc in
          crash := (now () -. t) :: !crash;
          if rp.Engine.rp_violations <> [] then fail "crash %s: violations" rp.rp_name;
          states := !states + rp.rp_states;
          raw := !raw + rp.rp_raw_states)
        Crashmonkey.crash_scenarios)
    Config.all_journal_modes;
  let crash_ns = now () -. t0 in
  let points_ms = List.map (fun ns -> ns /. 1e6) !points in
  put "core.matrix_observe_ns_per_event" (!matrix_ns /. Float.max 1. !matrix_kept);
  put "core.matrix_shards" (float_of_int (Matrix.stats matrix).Matrix.m_allocated);
  put "suites.point_ms_p50" (median points_ms);
  put "suites.point_ms_max" (List.fold_left Float.max 0. points_ms);
  put "crash.scenario_us" (median !crash /. 1e3);
  put "crash.states" (float_of_int !states);
  put "crash.images_per_state" (float_of_int !states /. float_of_int !raw);
  if home then begin
    put "suites.gen_ns_per_event" (!gen_ns /. !events);
    put "suites.gen_words_per_event" (!gen_words /. !events)
  end;
  { wall_ns = !traced +. crash_ns; rows_ns = !rows +. List.fold_left ( +. ) 0. !crash;
    traced_ns = !traced; events = !events }

(* --- main --- *)

let () =
  let suite = ref "xfstests" and home = ref "live" and seed = ref 1 in
  let scale = ref 1. and side_scale = ref 0.1 and dir = ref "." in
  Arg.parse
    [ ("--suite", Arg.Set_string suite, "SUITE xfstests|crashmonkey");
      ("--home", Arg.Set_string home, "SECTION live|replay|serve|lattice");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--scale", Arg.Set_float scale, "S scale of the home section");
      ("--side-scale", Arg.Set_float side_scale, "S scale of every other section");
      ("--dir", Arg.Set_string dir, "DIR directory for the probe's trace file") ]
    (fun a -> fail "unexpected argument %s" a)
    "probe.exe: per-layer cost of IOCov";
  let suite, mount =
    match !suite with
    | "xfstests" -> (Runner.Xfstests, Xfstests.mount)
    | "crashmonkey" -> (Runner.Crashmonkey, Crashmonkey.mount)
    | s -> fail "unknown suite %s" s
  in
  let home = !home and seed = !seed in
  if not (List.mem home [ "live"; "replay"; "serve"; "lattice" ]) then fail "unknown home %s" home;
  let scale_of section = if section = home then !scale else !side_scale in
  let live = live_section ~suite ~seed ~scale:(scale_of "live") in
  let trace_scale = if home = "replay" || home = "serve" then !scale else !side_scale in
  let path = Filename.concat !dir "probe.v3" in
  let write_ns = write_trace ~suite ~seed ~scale:trace_scale path in
  let replay = replay_section ~path ~mount in
  let records = replay.events in
  put "setup.trace_write_ns_per_event" (write_ns /. records);
  put "trace.bytes_per_event" (float_of_int (Unix.stat path).Unix.st_size /. records);
  let serve = serve_section ~path ~mount in
  Sys.remove path;
  let lattice = lattice_section ~seed ~scale:(scale_of "lattice") ~home:(home = "lattice") in
  let h =
    match home with
    | "live" -> live
    | "replay" -> replay
    | "serve" -> serve
    | _ -> lattice
  in
  put "home_wall_ns" h.wall_ns;
  put "home_rows_ns" h.rows_ns;
  put "home_traced_ns" h.traced_ns;
  put "home_events" h.events;
  print_string "{";
  List.iteri
    (fun i (k, v) -> Printf.printf "%s\"%s\": %.17g" (if i = 0 then "" else ", ") k v)
    (List.rev !metrics);
  print_endline "}"
