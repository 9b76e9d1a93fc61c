module Coverage = Iocov_core.Coverage
module Plan = Iocov_core.Plan
module Filter = Iocov_trace.Filter
module Event = Iocov_trace.Event
module Binary_io = Iocov_trace.Binary_io
module Format_io = Iocov_trace.Format_io
module Anomaly = Iocov_util.Anomaly
module Span = Iocov_obs.Span
module Metrics = Iocov_obs.Metrics
module Clock = Iocov_obs.Clock
module Trace_event = Iocov_obs.Trace_event

let m_batches =
  Metrics.counter Metrics.default "iocov_par_batches_total"
    ~help:"Work batches processed by the parallel pipeline."

let m_events =
  Metrics.counter Metrics.default "iocov_par_events_total"
    ~help:"Trace records processed by the parallel pipeline."

let m_observed kind =
  Metrics.counter Metrics.default "iocov_par_observed_events_total"
    ~labels:[ ("counters", kind) ]
    ~help:"Filtered records fed to a coverage accumulator, by counter backend."

let m_observed_dense = m_observed "dense"
let m_observed_reference = m_observed "reference"

let m_retries =
  Metrics.counter Metrics.default "iocov_par_batch_retries_total"
    ~help:"Work batches retried after a worker exception."

let m_abandoned =
  Metrics.counter Metrics.default "iocov_par_batches_abandoned_total"
    ~help:"Work batches abandoned after exhausting their retries."

let m_shards_failed =
  Metrics.counter Metrics.default "iocov_par_shards_failed_total"
    ~help:"Worker shards that died mid-run; survivors absorbed their queue."

let m_checkpoints =
  Metrics.counter Metrics.default "iocov_par_checkpoints_total"
    ~help:"Checkpoint files written by the replay pipeline."

let m_checkpoint_events =
  Metrics.gauge Metrics.default "iocov_par_checkpoint_events"
    ~help:"Cumulative events covered by the most recent checkpoint."

let default_batch = 1024

(* A compiled per-record stage chain.  Each call makes a fresh
   instance: a step ([None] drops the record) and a [credit] that
   flushes the meter counts the step tallied.  The chain is shareable
   across domains; an instance is not. *)
type stage = unit -> (Event.t -> Event.t option) * (unit -> unit)

(* The batch form the channel path runs: one instance per batch, so a
   batch stays a pure transform that supervision may re-run. *)
let stage_batch (stage : stage) events =
  let step, credit = stage () in
  let out = List.filter_map step events in
  credit ();
  out

(* Channel capacity in batches.  Small multiple of the worker count:
   enough slack to ride out scheduling jitter, small enough that decode
   stays O(capacity × batch) ahead of analysis. *)
let capacity_for jobs = 4 * jobs

type outcome = {
  coverage : Coverage.t;
  events : int;
  kept : int;
  dropped : int;
  shards : int;
  batches : int;
  shard_events : int array;
  completeness : Anomaly.completeness;
}

(* A unit of work: either decoded events (binary traces, live tracers)
   or raw text lines parsed on the worker (text traces — the parse is
   the expensive part, so it is the part worth distributing). *)
type work =
  | Events of Event.t list
  | Lines of (int * string) list

let work_size = function Events l -> List.length l | Lines l -> List.length l

(* Counter backend for shard accumulators.  [Dense] (the default)
   counts into {!Coverage.Dense}'s flat array and converts to a
   reference accumulator once at merge time; [Reference] keeps the
   hashed histograms on the hot path and serves as the differential
   oracle — both must produce byte-identical snapshots. *)
type counters = Dense | Reference

(* Re-exported equation with {!Binary_io.mode}: the same value both
   selects the trace decoder's corruption handling and the pipeline's
   treatment of unparsable text lines and abandoned batches. *)
type ingest = Binary_io.mode = Strict | Lenient of Anomaly.budget

type chaos = shard:int -> batch:int -> unit

type acc = A_ref of Coverage.t | A_dense of Coverage.Dense.t

type shard_state = {
  acc : acc;
  mutable s_events : int;
  mutable s_kept : int;
  mutable s_batches : int;
  mutable s_error : (int * string) option;  (* strict: lowest-line parse error *)
  mutable s_skipped : int;      (* lenient: unparsable records dropped *)
  mutable s_retried : int;      (* batch retry attempts *)
  mutable s_abandoned_batches : int;
  mutable s_abandoned_events : int;
  mutable s_killed : string option;  (* terminal shard failure *)
  mutable s_fatal : string option;   (* strict: batch dead after retries *)
  mutable s_anomaly_count : int;
  mutable s_anomalies : Anomaly.t list;  (* newest first, capped *)
}

let make_shard ~counters ~metered () =
  let acc =
    match counters with
    | Reference -> A_ref (Coverage.create ~metered ())
    (* dense shards are inherently unmetered; finalize credits the
       converted accumulator in one batch *)
    | Dense -> A_dense (Coverage.Dense.create ())
  in
  {
    acc;
    s_events = 0;
    s_kept = 0;
    s_batches = 0;
    s_error = None;
    s_skipped = 0;
    s_retried = 0;
    s_abandoned_batches = 0;
    s_abandoned_events = 0;
    s_killed = None;
    s_fatal = None;
    s_anomaly_count = 0;
    s_anomalies = [];
  }

let shard_note st a =
  st.s_anomaly_count <- st.s_anomaly_count + 1;
  if st.s_anomaly_count <= Anomaly.max_kept_anomalies then
    st.s_anomalies <- a :: st.s_anomalies

(* One backend dispatch per batch, not per event. *)
let observe_batch st kept n_kept =
  match st.acc with
  | A_ref cov ->
    Event.iter_tracked kept (Coverage.observe cov);
    Metrics.Counter.add m_observed_reference n_kept
  | A_dense d ->
    Event.iter_tracked kept (Coverage.Dense.observe d);
    Metrics.Counter.add m_observed_dense n_kept

let note_error st lineno msg =
  match st.s_error with
  | Some (l, _) when l <= lineno -> ()
  | _ -> st.s_error <- Some (lineno, msg)

(* A batch is processed in two halves so supervision can retry safely:
   [prepare] (parse + filter) touches no shard state and may run any
   number of times; [commit] is the only mutating half and runs exactly
   once per batch. *)
type prepared = {
  p_n : int;
  p_kept : Event.t list;
  p_kept_n : int;
  p_errors : (int * string) list;  (* text lines that failed to parse *)
}

(* The batch-level stage chain: mount filter (when given) then any
   extra stages.  Compiled once per run; shard-safe because every
   component is a pure batch transform over immutable events. *)
let compile_keep ?filter ?stage () =
  match (filter, stage) with
  | None, None -> fun events -> events
  | Some f, None -> Filter.keep_all f
  | None, Some s -> stage_batch s
  | Some f, Some s -> fun events -> stage_batch s (Filter.keep_all f events)

let prepare keep work =
  let errors = ref [] in
  let events =
    match work with
    | Events batch -> batch
    | Lines batch ->
      List.filter_map
        (fun (lineno, line) ->
          match Format_io.of_line ~seq:lineno line with
          | Ok e -> Some e
          | Error msg ->
            errors := (lineno, msg) :: !errors;
            None)
        batch
  in
  let kept = keep events in
  {
    p_n = List.length events;
    p_kept = kept;
    p_kept_n = List.length kept;
    p_errors = List.rev !errors;
  }

let commit ~ingest st p =
  (match ingest with
   | Strict -> List.iter (fun (l, m) -> note_error st l m) p.p_errors
   | Lenient _ ->
     List.iter
       (fun (l, m) ->
         st.s_skipped <- st.s_skipped + 1;
         shard_note st (Anomaly.v ~line:l Anomaly.Parse_error m))
       p.p_errors);
  observe_batch st p.p_kept p.p_kept_n;
  st.s_events <- st.s_events + p.p_n;
  st.s_kept <- st.s_kept + p.p_kept_n;
  st.s_batches <- st.s_batches + 1;
  Metrics.Counter.incr m_batches;
  Metrics.Counter.add m_events p.p_n

let note_retry st ~trace_args ~attempt =
  st.s_retried <- st.s_retried + 1;
  Metrics.Counter.incr m_retries;
  Trace_event.instant ~cat:"supervise"
    ~args:(trace_args @ [ ("attempt", string_of_int attempt) ])
    "batch-retry"

let abandon_batch ~ingest ~(policy : Pool.policy) st ~trace_args ~lost exn =
  let msg =
    Printf.sprintf "batch failed after %d retries: %s" policy.Pool.max_retries
      (Printexc.to_string exn)
  in
  st.s_abandoned_batches <- st.s_abandoned_batches + 1;
  st.s_abandoned_events <- st.s_abandoned_events + lost;
  Metrics.Counter.incr m_abandoned;
  Trace_event.instant ~cat:"supervise"
    ~args:(trace_args @ [ ("events_lost", string_of_int lost) ])
    "batch-abandoned";
  shard_note st (Anomaly.v Anomaly.Batch_abandoned msg);
  match ingest with
  | Strict -> if st.s_fatal = None then st.s_fatal <- Some msg
  | Lenient _ -> ()

(* Run one batch under supervision: retry [prepare] (with deterministic
   backoff) on any exception except {!Pool.Shard_killed}, which is a
   terminal shard failure and propagates to the worker loop.  A batch
   that exhausts its retries is abandoned — an accounted loss in
   lenient mode, a run-fatal error in strict mode (but the shard keeps
   draining either way, so siblings never stall). *)
let supervised_batch ~ingest ~(policy : Pool.policy) ~chaos ~keep st ~shard ~batchno w =
  let tracing = Trace_event.enabled () in
  let trace_args = [ ("shard", string_of_int shard); ("batch", string_of_int batchno) ] in
  let t_start = if tracing then Clock.now () else 0.0 in
  let rec attempt n =
    match
      (match chaos with Some f -> f ~shard ~batch:batchno | None -> ());
      prepare keep w
    with
    | p ->
      commit ~ingest st p;
      if tracing then
        Trace_event.complete ~cat:"stage" ~name:"batch"
          ~args:
            (trace_args
            @ [ ("events", string_of_int p.p_n); ("kept", string_of_int p.p_kept_n) ])
          ~ts:t_start
          ~dur:(Clock.now () -. t_start)
          ()
    | exception (Pool.Shard_killed _ as e) -> raise e
    | exception exn ->
      if n < policy.Pool.max_retries then begin
        note_retry st ~trace_args ~attempt:(n + 1);
        Pool.backoff policy ~attempt:(n + 1);
        attempt (n + 1)
      end
      else abandon_batch ~ingest ~policy st ~trace_args ~lost:(work_size w) exn
  in
  attempt 0

let record_kill st msg ~lost =
  st.s_killed <- Some msg;
  st.s_abandoned_batches <- st.s_abandoned_batches + 1;
  st.s_abandoned_events <- st.s_abandoned_events + lost;
  shard_note st (Anomaly.v Anomaly.Shard_failed msg);
  Trace_event.instant ~cat:"supervise" ~args:[ ("detail", msg) ] "shard-killed";
  Metrics.Counter.incr m_shards_failed

(* The worker loop of a spawned shard.  A {!Pool.Shard_killed} ends
   this shard only: its committed batches survive, its queue drains to
   the siblings, and the last shard to die closes the channel so the
   producer stops instead of blocking forever. *)
let worker_loop ~ingest ~policy ~chaos ~keep ~chan ~live st ~shard =
  let batchno = ref 0 in
  let rec loop () =
    match Chan.pop chan with
    | None -> ()
    | Some w -> (
      let b = !batchno in
      incr batchno;
      match supervised_batch ~ingest ~policy ~chaos ~keep st ~shard ~batchno:b w with
      | () -> loop ()
      | exception Pool.Shard_killed msg ->
        record_kill st msg ~lost:(work_size w);
        if Atomic.fetch_and_add live (-1) = 1 then Chan.close chan)
  in
  loop ()

(* The shard-side half of the completeness ledger; the producer-side
   half (decode skips, resyncs) comes from {!Binary_io.completeness}. *)
let shard_completeness st =
  {
    (Anomaly.clean ~events_read:0) with
    Anomaly.records_skipped = st.s_skipped;
    batches_retried = st.s_retried;
    shards_failed = (if st.s_killed = None then 0 else 1);
    events_abandoned = st.s_abandoned_events;
    anomalies = List.rev st.s_anomalies;
  }

(* Merge shard results in shard order.  merge_into is commutative and
   associative (property-tested), so the result is independent of how
   the scheduler spread batches over shards — the determinism
   contract.  Shards accumulate unmetered; the merged accumulator is
   credited to the global counters in one batch, matching the
   sequential path's totals exactly. *)
let finalize ~ingest ~pushed ~producer shards =
  let error =
    Array.fold_left
      (fun acc st ->
        match (acc, st.s_error) with
        | None, e | e, None -> e
        | (Some (la, _) as a), Some (lb, _) ->
          if la <= lb then a else st.s_error)
      None shards
  in
  let first_of f =
    Array.fold_left (fun acc st -> match acc with Some _ -> acc | None -> f st) None shards
  in
  let strict_failure =
    match ingest with
    | Lenient _ -> None
    | Strict -> (
      match error with
      | Some (lineno, msg) -> Some (Printf.sprintf "line %d: %s" lineno msg)
      | None -> (
        match first_of (fun st -> st.s_fatal) with
        | Some msg -> Some msg
        | None ->
          Option.map
            (fun msg -> "worker shard failed: " ^ msg)
            (first_of (fun st -> st.s_killed))))
  in
  match strict_failure with
  | Some msg -> Error msg
  | None ->
    let coverage =
      match shards with
      | [| { acc = A_ref cov; _ } |] ->
        cov (* single reference shard: metered per event already *)
      | _ -> (
        match shards.(0).acc with
        | A_ref _ ->
          let dst = Coverage.create () in
          Array.iter
            (fun st ->
              match st.acc with
              | A_ref cov -> Coverage.merge_into ~dst cov
              | A_dense _ -> assert false (* one backend per pipeline *))
            shards;
          Coverage.meter_counts dst;
          dst
        | A_dense _ ->
          (* O(cells) pointwise array sums, then one lossless rebuild
             of the reference shape for every downstream consumer. *)
          let dst = Coverage.Dense.create () in
          Array.iter
            (fun st ->
              match st.acc with
              | A_dense d -> Coverage.Dense.merge_into ~dst d
              | A_ref _ -> assert false)
            shards;
          let cov = Coverage.Dense.to_reference ~metered:true dst in
          Coverage.meter_counts cov;
          cov)
    in
    let sum f = Array.fold_left (fun acc st -> acc + f st) 0 shards in
    let events = sum (fun st -> st.s_events) in
    let completeness =
      let shard_side =
        Array.fold_left
          (fun acc st -> Anomaly.merge acc (shard_completeness st))
          (Anomaly.clean ~events_read:0)
          shards
      in
      let merged = Anomaly.merge { producer with Anomaly.events_read = 0 } shard_side in
      (* work pushed but neither committed, skipped, nor individually
         abandoned was stranded in the channel when every worker died *)
      let stranded =
        max 0
          (pushed - events
          - shard_side.Anomaly.events_abandoned
          - shard_side.Anomaly.records_skipped)
      in
      {
        merged with
        Anomaly.events_read = events;
        events_abandoned = merged.Anomaly.events_abandoned + stranded;
        truncated = merged.Anomaly.truncated || stranded > 0;
      }
    in
    let budget_failure =
      match ingest with
      | Strict -> None
      | Lenient budget ->
        let bad = completeness.Anomaly.records_skipped in
        if Anomaly.budget_allows budget ~bad ~total:(events + bad) ~final:true then None
        else
          Some
            (Printf.sprintf "error budget exceeded: %d of %d records corrupt (budget %s)"
               bad (events + bad) (Anomaly.budget_to_string budget))
    in
    match budget_failure with
    | Some msg -> Error msg
    | None ->
      Ok
        {
          coverage;
          events;
          kept = sum (fun st -> st.s_kept);
          dropped = events - sum (fun st -> st.s_kept);
          shards = Array.length shards;
          batches = sum (fun st -> st.s_batches);
          shard_events = Array.map (fun st -> st.s_events) shards;
          completeness;
        }

exception Halted
(* Raised out of the inline work handler when the single shard was
   killed: there is nobody left to feed, so the feed stops early. *)

(* The producer-side progress hook: called after every work item is
   pushed, with the cumulative pushed-event count and a lazy [peek]
   that yields a cheap cell view of the inline shard's accumulation so
   far ([None] for sharded runs, whose accumulators are domain-private
   until join).  A view reads cells in place — an array index on the
   dense backend — so peeking never copies or converts an accumulator
   on the hot path. *)
type view = {
  v_cells : int -> int;  (* plan cell id -> observation count *)
  v_events : int;
}

type watch = pushed:int -> peek:(unit -> view option) -> unit

let view_of_coverage cov ~events =
  { v_cells = (fun id -> Coverage.cell_count cov Plan.cells.(id)); v_events = events }

let view_shard st () =
  let cells =
    match st.acc with
    | A_ref cov -> fun id -> Coverage.cell_count cov Plan.cells.(id)
    | A_dense d -> Coverage.Dense.cell_count d
  in
  Some { v_cells = cells; v_events = st.s_events }

let view_none () = None

(* The checkpoint path still needs a real accumulator copy. *)
let peek_shard st () =
  let coverage =
    match st.acc with
    | A_ref cov -> Coverage.copy cov
    | A_dense d -> Coverage.Dense.to_reference ~metered:false d
  in
  Some (coverage, st.s_events)

(* The engine: [feed] pushes work items and reports the producer-side
   completeness through [set_comp] (on every exit path); shards drain
   the items.  With one job everything runs inline on the caller — the
   --jobs 1 path is the sequential path, with a metered shard and no
   channel. *)
let run_pipeline ~pool ~counters ~ingest ~policy ~chaos ?expose_shard ?watch ~feed ~keep () =
  let producer = ref (Anomaly.clean ~events_read:0) in
  let pushed = ref 0 in
  let watching ~peek =
    match watch with
    | Some f -> f ~pushed:!pushed ~peek
    | None -> ()
  in
  if Pool.jobs pool = 1 then begin
    let st = make_shard ~counters ~metered:true () in
    (match expose_shard with Some f -> f st | None -> ());
    let batchno = ref 0 in
    let handler w =
      if st.s_killed <> None then raise Halted;
      pushed := !pushed + work_size w;
      let b = !batchno in
      incr batchno;
      match supervised_batch ~ingest ~policy ~chaos ~keep st ~shard:0 ~batchno:b w with
      | () -> watching ~peek:(view_shard st)
      | exception Pool.Shard_killed msg ->
        record_kill st msg ~lost:(work_size w);
        raise Halted
    in
    (match
       Span.with_ ~name:"par/shard-0" (fun () ->
           feed ~push:handler ~set_comp:(fun c -> producer := c))
     with
     | () -> ()
     | exception Halted -> ());
    finalize ~ingest ~pushed:!pushed ~producer:!producer [| st |]
  end
  else begin
    let jobs = Pool.jobs pool in
    let chan = Chan.create ~capacity:(capacity_for jobs) in
    let live = Atomic.make jobs in
    let running =
      Pool.launch pool (fun ~shard ->
          let st = make_shard ~counters ~metered:false () in
          Span.with_ ~name:(Printf.sprintf "par/shard-%d" shard) (fun () ->
              worker_loop ~ingest ~policy ~chaos ~keep ~chan ~live st ~shard);
          st)
    in
    let push w =
      pushed := !pushed + work_size w;
      Chan.push chan w;
      watching ~peek:view_none
    in
    let fed =
      match feed ~push ~set_comp:(fun c -> producer := c) with
      | () -> Ok ()
      | exception Chan.Closed -> Ok () (* every worker died; partial run *)
      | exception exn -> Error exn
    in
    Chan.close chan;
    let shards = Pool.join running in
    match fed with
    | Error exn -> raise exn
    | Ok () -> finalize ~ingest ~pushed:!pushed ~producer:!producer shards
  end

(* --- entry points --- *)

let or_default pool = match pool with Some p -> p | None -> Pool.create ()
let or_policy policy = match policy with Some p -> p | None -> Pool.default_policy

let analyze_events ?pool ?(batch = default_batch) ?(counters = Dense) ?(ingest = Strict)
    ?policy ?chaos ?watch ?filter ?stage events =
  if batch <= 0 then invalid_arg "Replay.analyze_events: batch must be positive";
  let pool = or_default pool in
  let policy = or_policy policy in
  let keep = compile_keep ?filter ?stage () in
  let feed ~push ~set_comp:_ =
    let rec chunks = function
      | [] -> ()
      | events ->
        let rec take n acc rest =
          if n = 0 then (List.rev acc, rest)
          else
            match rest with
            | [] -> (List.rev acc, [])
            | e :: tl -> take (n - 1) (e :: acc) tl
        in
        let head, tail = take batch [] events in
        push (Events head);
        chunks tail
    in
    chunks events
  in
  match run_pipeline ~pool ~counters ~ingest ~policy ~chaos ?watch ~feed ~keep () with
  | Ok outcome -> outcome
  | Error msg ->
    (* event lists carry no text to fail parsing on *)
    failwith ("Replay.analyze_events: " ^ msg)

exception Feed_error of string

type checkpoint_spec = { ckpt_path : string; ckpt_every : int }

let coverage_of_acc = function
  | A_ref cov -> cov
  | A_dense d -> Coverage.Dense.to_reference ~metered:false d

(* One checkpoint: the resumed prefix (if any) + the producer's decode
   state + the inline shard's accumulation so far. *)
let write_checkpoint ~spec ~trace_path ~base ~stream st =
  let coverage = Coverage.create () in
  (match base with
   | Some (ck : Checkpoint.t) -> Coverage.merge_into ~dst:coverage ck.Checkpoint.coverage
   | None -> ());
  Coverage.merge_into ~dst:coverage (coverage_of_acc st.acc);
  let base_events, base_kept, base_batches, base_comp =
    match base with
    | Some ck ->
      ( ck.Checkpoint.events,
        ck.Checkpoint.kept,
        ck.Checkpoint.batches,
        { ck.Checkpoint.completeness with Anomaly.events_read = 0 } )
    | None -> (0, 0, 0, Anomaly.clean ~events_read:0)
  in
  let events = base_events + st.s_events in
  let completeness =
    let producer = { (Binary_io.completeness stream) with Anomaly.events_read = 0 } in
    let merged = Anomaly.merge base_comp (Anomaly.merge producer (shard_completeness st)) in
    { merged with Anomaly.events_read = events }
  in
  Checkpoint.save ~path:spec.ckpt_path
    {
      Checkpoint.trace = trace_path;
      cursor = Binary_io.cursor stream;
      events;
      kept = base_kept + st.s_kept;
      batches = base_batches + st.s_batches;
      completeness;
      coverage;
    };
  Metrics.Counter.incr m_checkpoints;
  Metrics.Gauge.set m_checkpoint_events events;
  Trace_event.instant ~cat:"checkpoint"
    ~args:[ ("events", string_of_int events) ]
    "checkpoint-write"

(* The fused single-shard engine: v3 records map to dense plan cells
   inside the decoder ({!Binary_io.drain_batch_dense}) — no [Event.t]
   list is ever built, no [Model.call] is ever materialized, no channel
   is crossed.  Metering, watch ticks, and checkpoints are
   batch-for-batch identical to the classic inline path, so snapshots
   and ledgers cannot tell the two apart. *)
let run_fused ~ingest ~batch ?watch ~checkpoint ~resume ~limit ~filter ~trace_path stream =
  let st = make_shard ~counters:Dense ~metered:true () in
  let d = match st.acc with A_dense d -> d | A_ref _ -> assert false in
  let keep_hint = Option.map (fun f hint -> Filter.matches_hint f hint) filter in
  let remaining = ref (match limit with Some n -> n | None -> max_int) in
  let next_due = ref (match checkpoint with Some c -> c.ckpt_every | None -> max_int) in
  let maybe_checkpoint ~force =
    match checkpoint with
    | Some spec when force || st.s_events >= !next_due ->
      write_checkpoint ~spec ~trace_path ~base:(Option.map snd resume) ~stream st;
      next_due := st.s_events + spec.ckpt_every
    | _ -> ()
  in
  let tracing = Trace_event.enabled () in
  let fed =
    Span.with_ ~name:"par/shard-0" (fun () ->
        let rec loop () =
          if !remaining <= 0 then Ok ()
          else begin
            let t_start = if tracing then Clock.now () else 0.0 in
            match
              Binary_io.drain_batch_dense stream ?keep_hint ~dense:d
                ~max:(min batch !remaining) ()
            with
            | Error _ as e -> e
            | Ok dr when dr.Binary_io.dr_produced = 0 -> Ok ()
            | Ok dr ->
              remaining := !remaining - dr.Binary_io.dr_produced;
              st.s_events <- st.s_events + dr.Binary_io.dr_produced;
              st.s_kept <- st.s_kept + dr.Binary_io.dr_kept;
              st.s_batches <- st.s_batches + 1;
              Metrics.Counter.incr m_batches;
              Metrics.Counter.add m_events dr.Binary_io.dr_produced;
              Metrics.Counter.add m_observed_dense dr.Binary_io.dr_kept;
              if keep_hint <> None then
                Filter.meter ~kept:dr.Binary_io.dr_kept ~no_hint:dr.Binary_io.dr_no_hint
                  ~no_match:dr.Binary_io.dr_no_match;
              if tracing then
                Trace_event.complete ~cat:"stage" ~name:"batch"
                  ~args:
                    [ ("shard", "0");
                      ("batch", string_of_int (st.s_batches - 1));
                      ("events", string_of_int dr.Binary_io.dr_produced);
                      ("kept", string_of_int dr.Binary_io.dr_kept) ]
                  ~ts:t_start
                  ~dur:(Clock.now () -. t_start)
                  ();
              (match watch with
               | Some w -> w ~pushed:st.s_events ~peek:(view_shard st)
               | None -> ());
              maybe_checkpoint ~force:false;
              loop ()
          end
        in
        let r = loop () in
        (match r with Ok () -> maybe_checkpoint ~force:(checkpoint <> None) | Error _ -> ());
        r)
  in
  match fed with
  | Error _ as e -> e
  | Ok () ->
    finalize ~ingest ~pushed:st.s_events
      ~producer:(Binary_io.completeness stream)
      [| st |]

let analyze_ic ~pool ~batch ~counters ~ingest ~policy ~chaos ?watch ~checkpoint ~resume
    ~limit ?filter ?stage ~trace_path ic =
  if batch <= 0 then invalid_arg "Replay.analyze_channel: batch must be positive";
  (match limit with
   | Some n when n < 0 -> invalid_arg "Replay.analyze_channel: limit must be non-negative"
   | _ -> ());
  let keep = compile_keep ?filter ?stage () in
  let inline_shard = ref None in
  let expose_shard st = inline_shard := Some st in
  let remaining = ref (match limit with Some n -> n | None -> max_int) in
  if Binary_io.is_binary_trace ic then begin
    let stream =
      match resume with
      | Some (_, (ck : Checkpoint.t)) -> Binary_io.resume_stream ~mode:ingest ic ck.cursor
      | None -> Binary_io.open_stream ~mode:ingest ic
    in
    match stream with
    | Error _ as e -> e
    | Ok st
      when Binary_io.stream_version st = 3
           && Pool.jobs pool = 1 && counters = Dense && chaos = None && stage = None ->
      run_fused ~ingest ~batch ?watch ~checkpoint ~resume ~limit ~filter ~trace_path st
    | Ok st -> (
      let feed ~push ~set_comp =
        let next_due =
          ref (match checkpoint with Some c -> c.ckpt_every | None -> max_int)
        in
        let maybe_checkpoint ~force =
          match (checkpoint, !inline_shard) with
          | Some spec, Some shard when force || shard.s_events >= !next_due ->
            write_checkpoint ~spec ~trace_path ~base:(Option.map snd resume) ~stream:st
              shard;
            next_due := shard.s_events + spec.ckpt_every
          | _ -> ()
        in
        Fun.protect
          ~finally:(fun () -> set_comp (Binary_io.completeness st))
          (fun () ->
            let rec loop () =
              if !remaining > 0 then begin
                match Binary_io.read_batch st ~max:(min batch !remaining) with
                | Error msg -> raise (Feed_error msg)
                | Ok b when Array.length b = 0 -> ()
                | Ok b ->
                  remaining := !remaining - Array.length b;
                  push (Events (Array.to_list b));
                  maybe_checkpoint ~force:false;
                  loop ()
              end
            in
            loop ();
            maybe_checkpoint ~force:(checkpoint <> None))
      in
      match
        run_pipeline ~pool ~counters ~ingest ~policy ~chaos ~expose_shard ?watch ~feed
          ~keep ()
      with
      | outcome -> outcome
      | exception Feed_error msg -> Error msg)
  end
  else begin
    let feed ~push ~set_comp:_ =
      let st = Format_io.open_stream ic in
      let rec loop () =
        if !remaining > 0 then begin
          let b = Format_io.read_raw_batch st ~max:(min batch !remaining) in
          if Array.length b > 0 then begin
            remaining := !remaining - Array.length b;
            push (Lines (Array.to_list b));
            loop ()
          end
        end
      in
      loop ()
    in
    match
      run_pipeline ~pool ~counters ~ingest ~policy ~chaos ~expose_shard ?watch ~feed
        ~keep ()
    with
    | outcome -> outcome
    | exception Feed_error msg -> Error msg
  end

(* Fold a resumed prefix into a suffix outcome.  Coverage merging is
   commutative and associative, so prefix + suffix is byte-identical to
   the uninterrupted run — at any job count or counter backend. *)
let merge_resumed ~from (ck : Checkpoint.t) (o : outcome) =
  let coverage = Coverage.create () in
  Coverage.merge_into ~dst:coverage ck.Checkpoint.coverage;
  Coverage.merge_into ~dst:coverage o.coverage;
  let events = ck.Checkpoint.events + o.events in
  let kept = ck.Checkpoint.kept + o.kept in
  let completeness =
    let prefix = { ck.Checkpoint.completeness with Anomaly.events_read = 0 } in
    let suffix = { o.completeness with Anomaly.events_read = 0 } in
    { (Anomaly.merge prefix suffix) with Anomaly.events_read = events; resumed_from = Some from }
  in
  {
    o with
    coverage;
    events;
    kept;
    dropped = events - kept;
    batches = ck.Checkpoint.batches + o.batches;
    completeness;
  }

let analyze_channel ?pool ?(batch = default_batch) ?(counters = Dense) ?(ingest = Strict)
    ?policy ?chaos ?watch ?limit ?filter ?stage ic =
  let pool = or_default pool in
  let policy = or_policy policy in
  analyze_ic ~pool ~batch ~counters ~ingest ~policy ~chaos ?watch ~checkpoint:None
    ~resume:None ~limit ?filter ?stage ~trace_path:"<channel>" ic

let analyze_file ?pool ?(batch = default_batch) ?(counters = Dense) ?(ingest = Strict)
    ?policy ?chaos ?watch ?checkpoint ?resume ?limit ?filter ?stage path =
  let pool = or_default pool in
  let policy = or_policy policy in
  match checkpoint with
  | Some spec when spec.ckpt_every <= 0 ->
    Error "checkpoint interval must be positive"
  | Some _ when Pool.jobs pool <> 1 ->
    (* only the inline path has a single deterministic cursor to freeze;
       resuming, by contrast, works at any job count *)
    Error "checkpointing requires --jobs 1 (resume works at any job count)"
  | _ -> (
    (* sweep any *.tmp dropping a killed predecessor left next to the
       checkpoint before this run starts writing its own *)
    (match checkpoint with
     | Some spec -> ignore (Checkpoint.clean_stale ~path:spec.ckpt_path)
     | None -> ());
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          (match resume with
           | Some _ when not (Binary_io.is_binary_trace ic) ->
             Error "resume requires a binary trace"
           | _ ->
             match
               analyze_ic ~pool ~batch ~counters ~ingest ~policy ~chaos ?watch
                 ~checkpoint ~resume ~limit ?filter ?stage ~trace_path:path ic
             with
             | Error _ as e -> e
             | Ok o -> (
               match resume with
               | None -> Ok o
               | Some (from, ck) -> Ok (merge_resumed ~from ck o)))))

(* --- the push-based session, for live tracers --- *)

type session = {
  push : Event.t -> unit;
  peek : unit -> (Coverage.t * int) option;  (* inline shard only *)
  view : unit -> view option;  (* cheap cell view, inline shard only *)
  complete : unit -> (outcome, string) result;
}

(* The inline (--jobs 1) session consumes each record as it arrives:
   a mount verdict from the session's own memo, the stage chain's step,
   then the counter bump.  No list is built, so nothing a record
   allocates outlives the minor heap.  A batch survives only as the
   metering unit: every [batch] records the tallies are credited
   exactly as the channel path credits one committed batch, so metric
   totals agree at any job count.  Supervision is per record: a failing
   step is retried (a step touches no shard state), and when its
   retries run out the rest of its batch is abandoned — records already
   counted stay counted, the others are an accounted loss. *)
type inline = {
  st : shard_state;
  batch : int;
  ingest : ingest;
  policy : Pool.policy;
  memo : Filter.Memo.t option;  (* shard-local: the filter stays shareable *)
  step : (Event.t -> Event.t option) option;
  credit : unit -> unit;
  observe : Iocov_syscall.Model.call -> Iocov_syscall.Model.outcome -> unit;
  m_observed : Metrics.Counter.t;
  mutable pushed : int;
  mutable b_events : int;  (* records of the open batch: committed ... *)
  mutable b_kept : int;
  mutable b_lost : int;  (* ... and abandoned *)
  mutable b_no : int;
  mutable b_start : float;  (* trace timestamp, when tracing *)
}

let inline_args s = [ ("shard", "0"); ("batch", string_of_int s.b_no) ]

let close_batch s =
  let st = s.st in
  Option.iter Filter.Memo.credit s.memo;
  s.credit ();
  if s.b_lost = 0 then begin
    st.s_batches <- st.s_batches + 1;
    Metrics.Counter.incr m_batches
  end;
  Metrics.Counter.add m_events s.b_events;
  Metrics.Counter.add s.m_observed s.b_kept;
  if s.b_start > 0.0 then
    Trace_event.complete ~cat:"stage" ~name:"batch"
      ~args:
        (inline_args s
        @ [ ("events", string_of_int s.b_events); ("kept", string_of_int s.b_kept) ])
      ~ts:s.b_start
      ~dur:(Clock.now () -. s.b_start)
      ();
  s.b_no <- s.b_no + 1;
  s.b_start <- 0.0;
  s.b_events <- 0;
  s.b_kept <- 0;
  s.b_lost <- 0

(* The record's step under supervision; [None] when it dropped the
   record or its retries ran out (then [b_lost] counts it). *)
let rec supervised_step s step e n =
  match step e with
  | r -> r
  | exception Pool.Shard_killed msg ->
    record_kill s.st msg ~lost:1;
    s.b_lost <- 1;
    None
  | exception exn ->
    if n < s.policy.Pool.max_retries then begin
      note_retry s.st ~trace_args:(inline_args s) ~attempt:(n + 1);
      Pool.backoff s.policy ~attempt:(n + 1);
      supervised_step s step e (n + 1)
    end
    else begin
      abandon_batch ~ingest:s.ingest ~policy:s.policy s.st ~trace_args:(inline_args s)
        ~lost:1 exn;
      s.b_lost <- 1;
      None
    end

let observe_one s (e : Event.t) =
  (match e.payload with
   | Event.Tracked call -> s.observe call e.outcome
   | Event.Aux _ -> ());
  s.b_kept <- s.b_kept + 1;
  s.st.s_kept <- s.st.s_kept + 1

let inline_push s e =
  s.pushed <- s.pushed + 1;
  let st = s.st in
  if st.s_killed = None then begin
    if s.b_events = 0 && s.b_lost = 0 && Trace_event.enabled () then
      s.b_start <- Clock.now ();
    if s.b_lost > 0 then begin
      (* the rest of an abandoned batch *)
      s.b_lost <- s.b_lost + 1;
      st.s_abandoned_events <- st.s_abandoned_events + 1
    end
    else begin
      (match s.memo with
       | Some m when not (Filter.Memo.decide m e) -> ()
       | _ -> (
         match s.step with
         | None -> observe_one s e
         | Some step -> (
           match supervised_step s step e 0 with
           | Some e -> observe_one s e
           | None -> ())));
      if s.b_lost = 0 then begin
        s.b_events <- s.b_events + 1;
        st.s_events <- st.s_events + 1
      end
    end;
    if s.b_events + s.b_lost >= s.batch then close_batch s
  end

let inline_session ~batch ~counters ~ingest ~policy ?filter ?stage () =
  let st = make_shard ~counters ~metered:true () in
  let observe, m_observed =
    match st.acc with
    | A_ref cov -> (Coverage.observe cov, m_observed_reference)
    | A_dense d -> (Coverage.Dense.observe d, m_observed_dense)
  in
  let step, credit =
    match stage with
    | Some stage ->
      let step, credit = stage () in
      (Some step, credit)
    | None -> (None, ignore)
  in
  let s =
    {
      st; batch; ingest; policy;
      memo = Option.map Filter.Memo.create filter;
      step; credit; observe; m_observed;
      pushed = 0; b_events = 0; b_kept = 0; b_lost = 0; b_no = 0; b_start = 0.0;
    }
  in
  {
    push = inline_push s;
    peek = peek_shard st;
    view = view_shard st;
    complete =
      (fun () ->
        if s.b_events + s.b_lost > 0 then close_batch s;
        finalize ~ingest ~pushed:s.pushed ~producer:(Anomaly.clean ~events_read:0) [| st |]);
  }

(* Sharded sessions buffer records into batches for the channel. *)
let sharded_session ~pool ~batch ~counters ~ingest ~policy ?filter ?stage () =
  let keep = compile_keep ?filter ?stage () in
  let jobs = Pool.jobs pool in
  let chan = Chan.create ~capacity:(capacity_for jobs) in
  let live = Atomic.make jobs in
  let running =
    Pool.launch pool (fun ~shard ->
        let st = make_shard ~counters ~metered:false () in
        Span.with_ ~name:(Printf.sprintf "par/shard-%d" shard) (fun () ->
            worker_loop ~ingest ~policy ~chaos:None ~keep ~chan ~live st ~shard);
        st)
  in
  let pushed = ref 0 and buf = ref [] and buf_n = ref 0 in
  let submit () =
    if !buf_n > 0 then begin
      let w = Events (List.rev !buf) in
      pushed := !pushed + !buf_n;
      buf := [];
      buf_n := 0;
      (* every worker dead: the events are accounted as stranded *)
      try Chan.push chan w with Chan.Closed -> ()
    end
  in
  {
    push =
      (fun e ->
        buf := e :: !buf;
        incr buf_n;
        if !buf_n >= batch then submit ());
    peek = (fun () -> None);
    view = (fun () -> None);
    complete =
      (fun () ->
        submit ();
        Chan.close chan;
        finalize ~ingest ~pushed:!pushed ~producer:(Anomaly.clean ~events_read:0)
          (Pool.join running));
  }

let session ?pool ?(batch = default_batch) ?(counters = Dense) ?(ingest = Strict) ?policy
    ?filter ?stage () =
  if batch <= 0 then invalid_arg "Replay.session: batch must be positive";
  let pool = or_default pool in
  let policy = or_policy policy in
  if Pool.jobs pool = 1 then inline_session ~batch ~counters ~ingest ~policy ?filter ?stage ()
  else sharded_session ~pool ~batch ~counters ~ingest ~policy ?filter ?stage ()

let sink s e = s.push e
let progress s = s.peek ()
let progress_view s = s.view ()
let complete s = s.complete ()

let finish s =
  match complete s with
  | Ok outcome -> outcome
  | Error msg -> failwith ("Replay.finish: " ^ msg)
