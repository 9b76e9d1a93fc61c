(* Tests for the live path: the per-event inline session against the
   batched sharded session and [Replay.analyze_events] on real suite
   streams (snapshots, metric deltas, error reporting), the tracer's
   canonical-path builder against the split/fold it replaced, its aux
   record text against [Printf]'s %S, and the bounded mount-verdict
   memo. *)

open Iocov_syscall
module Fs = Iocov_vfs.Fs
module Path = Iocov_vfs.Path
module Event = Iocov_trace.Event
module Filter = Iocov_trace.Filter
module Tracer = Iocov_trace.Tracer
module Snapshot = Iocov_core.Snapshot
module Anomaly = Iocov_util.Anomaly
module Metrics = Iocov_obs.Metrics
module Replay = Iocov_par.Replay
module Pool = Iocov_par.Pool
module Runner = Iocov_suites.Runner
module Stage = Iocov_pipe.Stage
module Source = Iocov_pipe.Source
module Sink = Iocov_pipe.Sink
module Driver = Iocov_pipe.Driver
module Progress = Iocov_pipe.Progress

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- suite streams --- *)

let suites = [ Runner.Xfstests; Runner.Crashmonkey; Runner.Ltp ]

(* Every raw record a suite emits, in order, captured once. *)
let streams =
  List.map
    (fun suite ->
      ( suite,
        lazy
          (let events = ref [] in
           let dispatch e = events := e :: !events in
           let seed = 7 and scale = 0.05 in
           (match suite with
            | Runner.Xfstests -> ignore (Iocov_suites.Xfstests.run ~seed ~scale ~dispatch ())
            | Runner.Crashmonkey ->
              ignore (Iocov_suites.Crashmonkey.run ~seed ~scale ~dispatch ())
            | Runner.Ltp -> ignore (Iocov_suites.Ltp.run ~seed ~scale ~dispatch ()));
           List.rev !events) ))
    suites

let stream suite = Lazy.force (List.assoc suite streams)

(* a batch size that leaves a partial tail on every stream *)
let batch = 250

(* --- metric deltas --- *)

let counter ?(labels = []) name = Metrics.counter Metrics.default name ~labels

let engine_counters =
  [ ("kept", counter "iocov_filter_events_total" ~labels:[ ("result", "kept") ]);
    ( "no_hint",
      counter "iocov_filter_events_total" ~labels:[ ("result", "dropped_no_hint") ] );
    ( "no_match",
      counter "iocov_filter_events_total" ~labels:[ ("result", "dropped_no_match") ] );
    ("batches", counter "iocov_par_batches_total");
    ("events", counter "iocov_par_events_total");
    ("observed", counter "iocov_par_observed_events_total" ~labels:[ ("counters", "dense") ]);
    ("retries", counter "iocov_par_batch_retries_total");
    ("abandoned", counter "iocov_par_batches_abandoned_total");
    ("meter", counter "iocov_pipe_stage_events_total" ~labels:[ ("stage", "live-test") ]) ]

(* [f ()] and what it added to each engine counter, rendered. *)
let with_deltas f =
  let before = List.map (fun (_, c) -> Metrics.Counter.value c) engine_counters in
  let r = f () in
  let deltas =
    List.map2
      (fun (name, c) b -> Printf.sprintf "%s=%d" name (Metrics.Counter.value c - b))
      engine_counters before
  in
  (r, String.concat " " deltas)

(* --- the three engines --- *)

let run_session ~jobs ?ingest ?filter ?stage events =
  let s = Replay.session ~pool:(Pool.create ~jobs ()) ~batch ?ingest ?filter ?stage () in
  List.iter (Replay.sink s) events;
  Replay.complete s

let run_analyze ?ingest ?filter ?stage events =
  match
    Replay.analyze_events ~pool:(Pool.create ~jobs:1 ()) ~batch ?ingest ?filter ?stage events
  with
  | o -> Ok o
  | exception Failure msg -> Error msg

let engines = [ ("inline", run_session ~jobs:1); ("sharded", run_session ~jobs:2);
                ("analyze", run_analyze) ]

let outcome_or_fail tag = function
  | Ok (o : Replay.outcome) -> o
  | Error msg -> Alcotest.failf "%s: %s" tag msg

(* Every engine, on every suite stream: same snapshot, same kept
   count, same metric deltas. *)
let agree ~chain ?filter ?stage suite =
  let events = stream suite in
  let results =
    List.map
      (fun (name, run) ->
        let tag = Printf.sprintf "%s %s %s" (Runner.suite_name suite) chain name in
        let r, deltas = with_deltas (fun () -> run ?ingest:None ?filter ?stage events) in
        let o = outcome_or_fail tag r in
        (tag, Snapshot.to_string o.Replay.coverage, o.Replay.kept, o.Replay.events, deltas))
      engines
  in
  match results with
  | (_, snap0, kept0, events0, deltas0) :: rest ->
    check_int "every record analyzed" (List.length events) events0;
    List.iter
      (fun (tag, snap, kept, events, deltas) ->
        check_string (tag ^ " snapshot") snap0 snap;
        check_int (tag ^ " kept") kept0 kept;
        check_int (tag ^ " events") events0 events;
        check_string (tag ^ " metric deltas") deltas0 deltas)
      rest
  | [] -> assert false

let mount_of = function
  | Runner.Xfstests -> Iocov_suites.Xfstests.mount
  | Runner.Crashmonkey -> Iocov_suites.Crashmonkey.mount
  | Runner.Ltp -> Iocov_suites.Ltp.mount

let test_plain_filter () =
  List.iter
    (fun suite -> agree ~chain:"filter" ~filter:(Filter.mount_point (mount_of suite)) suite)
    suites

(* the examples/streaming_sinks.ml shape, plus a rewrite that drops *)
let chain_of suite =
  Stage.compile
    [ Stage.mount (mount_of suite);
      Stage.map ~name:"tracked-only" (fun (e : Event.t) ->
          match e.payload with Event.Aux _ -> None | Event.Tracked _ -> Some e);
      Stage.meter "live-test" ]

let test_filter_map_meter () =
  List.iter
    (fun suite ->
      let filter, stage = chain_of suite in
      agree ~chain:"filter+map+meter" ?filter ?stage suite)
    suites

(* A live driver run with --progress and a checkpoint sink (jobs 1;
   sharded live runs refuse checkpoints) against the same run at jobs 2
   and the event-list replay of the same stream. *)
let test_progress_and_checkpoint () =
  List.iter
    (fun suite ->
      let events = stream suite in
      let lines = ref 0 in
      let progress = { Progress.every = 100; format = Progress.Text;
                       emit = (fun _ -> incr lines); budget = None } in
      let config jobs = Driver.config ~jobs ~batch ~progress () in
      let stages = [ Stage.mount (mount_of suite) ] in
      let live = Source.live ~label:"live" (fun emit -> List.iter emit events) in
      let ckpt = Filename.temp_file "iocov_live" ".snap" in
      Fun.protect ~finally:(fun () -> Sys.remove ckpt) @@ fun () ->
      let run tag f =
        let r, deltas = with_deltas f in
        match r with
        | Ok (r : Driver.run) -> (tag, Snapshot.to_string r.product.Sink.coverage, deltas)
        | Error msg -> Alcotest.failf "%s: %s" tag msg
      in
      let name = Runner.suite_name suite in
      let inline =
        run (name ^ " live jobs 1") (fun () ->
            Driver.run ~config:(config 1) ~stages
              ~sinks:[ Sink.checkpoint ~path:ckpt ~every:300 ]
              live)
      in
      let others =
        [ run (name ^ " live jobs 2") (fun () -> Driver.run ~config:(config 2) ~stages live);
          run (name ^ " events") (fun () ->
              Driver.run ~config:(config 1) ~stages (Source.events ~label:"events" events)) ]
      in
      let _, snap0, deltas0 = inline in
      List.iter
        (fun (tag, snap, deltas) ->
          check_string (tag ^ " snapshot") snap0 snap;
          check_string (tag ^ " metric deltas") deltas0 deltas)
        others;
      (match Snapshot.load_file ckpt with
       | Ok cov -> check_string (name ^ " final checkpoint") snap0 (Snapshot.to_string cov)
       | Error msg -> Alcotest.failf "checkpoint: %s" msg);
      check_bool (name ^ " progress reported") true (!lines > 0))
    suites

(* --- a stage that raises: reported the same way by every engine --- *)

exception Boom

let raising_stage ~at =
  let filter, stage =
    Stage.compile
      [ Stage.mount "/mnt/test";
        Stage.map ~name:"boom" (fun (e : Event.t) ->
            if e.seq = at then raise Boom else Some e) ]
  in
  (filter, stage)

let boom_message = "batch failed after 2 retries: " ^ Printexc.to_string Boom

let test_stage_error_strict () =
  let events = stream Runner.Xfstests in
  let filter, stage = raising_stage ~at:50 in
  List.iter
    (fun (name, run) ->
      match run ?ingest:None ?filter ?stage events with
      | Ok _ -> Alcotest.failf "%s: a raising stage must fail a strict run" name
      | Error msg ->
        let n = String.length boom_message in
        check_string (name ^ " strict error") boom_message
          (String.sub msg (String.length msg - n) n))
    engines

let test_stage_error_lenient () =
  let events = stream Runner.Xfstests in
  let total = List.length events in
  let filter, stage = raising_stage ~at:50 in
  let ingest = Replay.Lenient (Anomaly.budget_of_string "100%" |> Result.get_ok) in
  let lost =
    List.map
      (fun (name, run) ->
        let r, deltas = with_deltas (fun () -> run ?ingest:(Some ingest) ?filter ?stage events) in
        let o = outcome_or_fail name r in
        let c = o.Replay.completeness in
        check_int (name ^ ": every record committed or lost") total
          (o.Replay.events + c.Anomaly.events_abandoned);
        check_bool (name ^ ": loss counted") true (c.Anomaly.events_abandoned > 0);
        check_bool (name ^ ": abandonment noted") true
          (List.exists
             (fun (a : Anomaly.t) -> a.Anomaly.kind = Anomaly.Batch_abandoned)
             c.Anomaly.anomalies);
        (* the same batches fail and are retried on every engine *)
        let counted key =
          List.find (fun kv -> String.length kv > String.length key
                               && String.sub kv 0 (String.length key + 1) = key ^ "=")
            (String.split_on_char ' ' deltas)
        in
        ((name, c.Anomaly.events_abandoned), (counted "retries", counted "abandoned")))
      engines
  in
  (match lost with
   | (_, counts0) :: rest ->
     List.iter
       (fun ((name, _), counts) ->
         check_bool (name ^ ": same retried and abandoned batches") true (counts = counts0))
       rest
   | [] -> ());
  (* batch-level engines lose whole batches; the per-event one only
     the tail from the failing record *)
  let abandoned name = List.assoc name (List.map fst lost) in
  check_int "sharded loss = analyze loss" (abandoned "analyze") (abandoned "sharded");
  check_bool "inline loses no more" true (abandoned "inline" <= abandoned "analyze")

(* A stage that kills the shard: a run error in strict mode, an
   accounted loss (every later record stranded) in lenient mode. *)
let test_stage_kill () =
  let events = stream Runner.Ltp in
  let total = List.length events in
  let killer =
    fun () ->
      ( (fun (e : Event.t) ->
          if e.seq = 5 then raise (Pool.Shard_killed "chaos") else Some e),
        ignore )
  in
  (match run_session ~jobs:1 ~stage:killer events with
   | Ok _ -> Alcotest.fail "a killed shard must fail a strict run"
   | Error msg -> check_string "strict kill" "worker shard failed: chaos" msg);
  let ingest = Replay.Lenient (Anomaly.budget_of_string "100%" |> Result.get_ok) in
  match run_session ~jobs:1 ~ingest ~stage:killer events with
  | Error msg -> Alcotest.failf "lenient kill: %s" msg
  | Ok o ->
    let c = o.Replay.completeness in
    check_int "one shard failed" 1 c.Anomaly.shards_failed;
    check_int "every record committed or lost" total
      (o.Replay.events + c.Anomaly.events_abandoned)

(* --- canonical paths: the new builder against the split/fold --- *)

(* The tracer's previous normalizer, kept verbatim as the reference. *)
let reference_absolutize ~cwd path =
  let raw = if String.length path > 0 && path.[0] = '/' then path else Path.join cwd path in
  let parts = List.filter (fun c -> c <> "") (String.split_on_char '/' raw) in
  let folded =
    List.fold_left
      (fun acc c ->
        match c with
        | "." -> acc
        | ".." -> (match acc with [] -> [] | _ :: rest -> rest)
        | c -> c :: acc)
      [] parts
  in
  "/" ^ String.concat "/" (List.rev folded)

let test_absolutize_table () =
  let cases =
    [ ("/", "/", "/");
      ("/", "//a", "/a");
      ("/", "/a/./b", "/a/b");
      ("/", "/a/..", "/");
      ("/", "/..", "/");
      ("/", "/a/b/", "/a/b");
      ("/", "/a/.x", "/a/.x");
      ("/", "/a/..x/...", "/a/..x/...");
      ("/", "", "/");
      ("/", ".", "/");
      ("/", "a/b", "/a/b");
      ("/mnt/test", "f", "/mnt/test/f");
      ("/mnt/test", "./d/../f", "/mnt/test/f");
      ("/mnt/test", "../../../x", "/x");
      ("/mnt/test", "", "/mnt/test");
      ("/mnt/test", "..", "/mnt");
      ("/mnt/test", "/abs//p/", "/abs/p") ]
  in
  List.iter
    (fun (cwd, path, expected) ->
      let tag = Printf.sprintf "cwd %S path %S" cwd path in
      check_string (tag ^ " reference") expected (reference_absolutize ~cwd path);
      check_string tag expected (Tracer.absolutize ~cwd path))
    cases;
  let canonical = "/mnt/test/d1/f2" in
  check_bool "canonical path returned as is" true
    (Tracer.absolutize ~cwd:"/x" canonical == canonical)

(* The same through a tracer: relative paths after a chdir. *)
let test_absolutize_after_chdir () =
  let fs = Fs.create () in
  let tracer = Tracer.create fs in
  let hints = ref [] in
  Tracer.on_event tracer (fun e -> hints := e.Event.path_hint :: !hints);
  List.iter
    (fun p -> ignore (Tracer.exec tracer (Model.mkdir ~mode:0o755 p)))
    [ "/mnt"; "/mnt/test"; "/mnt/test/d" ];
  ignore (Tracer.exec tracer (Model.chdir (Model.Path "/mnt/test/./d/")));
  check_string "cwd canonical" "/mnt/test/d" (Tracer.cwd tracer);
  let flags = Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT ] in
  List.iter
    (fun p ->
      let cwd = Tracer.cwd tracer in
      ignore (Tracer.exec tracer (Model.open_ ~mode:0o644 ~flags p));
      match !hints with
      | Some hint :: _ ->
        check_string (Printf.sprintf "hint of %S" p) (reference_absolutize ~cwd p) hint
      | _ -> Alcotest.failf "no hint for %S" p)
    [ "f"; "./g"; "../h"; "../../t2"; ".x"; "sub/../k"; "/mnt/test/d//abs" ];
  ignore (Tracer.exec tracer (Model.chdir (Model.Path "..")));
  check_string "cwd after chdir .." "/mnt/test" (Tracer.cwd tracer)

let gen_path =
  let open QCheck.Gen in
  let component = oneofl [ ""; "."; ".."; "a"; "b"; ".x"; "..y"; "..."; "mnt" ] in
  map2
    (fun lead parts -> (if lead then "/" else "") ^ String.concat "/" parts)
    bool (list_size (0 -- 7) component)

let absolutize_prop =
  QCheck.Test.make ~name:"absolutize = split/fold reference" ~count:2000
    (QCheck.make ~print:(fun (c, p) -> Printf.sprintf "cwd %S path %S" c p)
       QCheck.Gen.(pair gen_path gen_path))
    (fun (cwd_src, path) ->
      let cwd = reference_absolutize ~cwd:"/" cwd_src in
      let expected = reference_absolutize ~cwd path in
      let got = Tracer.absolutize ~cwd path in
      got = expected && ((not (expected = path)) || got == path))

(* --- the bounded verdict memo --- *)

(* Aux records render their arguments as [Printf]'s %S would (quotes
   around [String.escaped]); the tracer builds that text by hand, so pin
   it against the format on names that need escaping. *)
let test_aux_detail_table () =
  let names =
    [ "/mnt/test/plain"; "with space"; "quote\"inside"; "back\\slash"; "tab\tnl\n";
      "ctl\001\127"; "high\200\255"; "utf8 \xc3\xa9"; "" ]
  in
  let fs = Fs.create () in
  let tracer = Tracer.create fs in
  let details = ref [] in
  Tracer.on_event tracer (fun e ->
      match e.Event.payload with
      | Event.Aux { detail; _ } -> details := detail :: !details
      | Event.Tracked _ -> ());
  List.iter
    (fun n ->
      List.iter
        (fun (aux, expected) ->
          ignore (Tracer.exec_aux tracer aux);
          check_string expected expected (List.hd !details))
        [ (Fs.Unlink n, Printf.sprintf "path=%S" n);
          (Fs.Rmdir n, Printf.sprintf "path=%S" n);
          (Fs.Rename (n, n ^ "2"), Printf.sprintf "old=%S, new=%S" n (n ^ "2"));
          (Fs.Symlink (n, "l" ^ n), Printf.sprintf "target=%S, link=%S" n ("l" ^ n));
          (Fs.Link (n, n ^ "\""), Printf.sprintf "old=%S, new=%S" n (n ^ "\"")) ])
    names;
  List.iter
    (fun (aux, expected) ->
      ignore (Tracer.exec_aux tracer aux);
      check_string expected expected (List.hd !details))
    [ (Fs.Fsync 3, Printf.sprintf "fd=%d" 3); (Fs.Fdatasync (-1), Printf.sprintf "fd=%d" (-1));
      (Fs.Sync, ""); (Fs.Crash, "") ]

let test_memo_bound () =
  let filter = Filter.mount_point "/mnt/test" in
  let memo = Filter.Memo.create filter in
  let bound = Filter.Memo.bound in
  let distinct = 3 * bound in
  let rng = Iocov_util.Prng.create ~seed:5 in
  for i = 0 to (2 * distinct) - 1 do
    (* three times the bound in distinct hints, then revisited at random *)
    let k = if i < distinct then i else Iocov_util.Prng.int rng distinct in
    let hint =
      if k mod 3 = 0 then Printf.sprintf "/etc/f%d" k else Printf.sprintf "/mnt/test/f%d" k
    in
    if Filter.Memo.matches memo hint <> Filter.matches_hint filter hint then
      Alcotest.failf "memo verdict differs on %s" hint;
    if Filter.Memo.size memo > bound then
      Alcotest.failf "memo holds %d hints, bound %d" (Filter.Memo.size memo) bound
  done;
  List.iter
    (fun hint ->
      check_bool hint (Filter.matches_hint filter hint) (Filter.Memo.matches memo hint))
    [ "/mnt/test"; "/mnt/testx"; "/mnt"; "/"; "/mnt/test/" ]

let suites =
  [ ( "live.session",
      [ Alcotest.test_case "plain filter: inline = sharded = analyze" `Quick
          test_plain_filter;
        Alcotest.test_case "filter+map+meter chain" `Quick test_filter_map_meter;
        Alcotest.test_case "progress + checkpoint sink" `Quick
          test_progress_and_checkpoint;
        Alcotest.test_case "raising stage: strict run error" `Quick test_stage_error_strict;
        Alcotest.test_case "raising stage: lenient counted loss" `Quick
          test_stage_error_lenient;
        Alcotest.test_case "killed shard" `Quick test_stage_kill ] );
    ( "live.tracer",
      [ Alcotest.test_case "absolutize table" `Quick test_absolutize_table;
        Alcotest.test_case "relative paths after chdir" `Quick test_absolutize_after_chdir;
        QCheck_alcotest.to_alcotest absolutize_prop;
        Alcotest.test_case "memo stays bounded and exact" `Quick test_memo_bound;
        Alcotest.test_case "aux detail = Printf %S table" `Quick test_aux_detail_table ] ) ]
