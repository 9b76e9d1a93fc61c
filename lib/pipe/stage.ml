module Filter = Iocov_trace.Filter
module Event = Iocov_trace.Event
module Metrics = Iocov_obs.Metrics

type t =
  | Keep of Filter.t
  | Map of { name : string; f : Event.t -> Event.t option }
  | Meter of { name : string }

let filter f = Keep f
let mount point = Keep (Filter.mount_point point)
let map ~name f = Map { name; f }
let meter name = Meter { name }

let name = function
  | Keep _ -> "filter"
  | Map { name; _ } -> name
  | Meter { name; _ } -> name

(* Resolve each stage once, at compile time — the per-record path does
   no registry lookups.  Each instance tallies locally and credits its
   counters when the engine closes a batch. *)
let instance_of = function
  | Keep f ->
    fun () ->
      let m = Filter.Memo.create f in
      ( (fun e -> if Filter.Memo.decide m e then Some e else None),
        fun () -> Filter.Memo.credit m )
  | Map { f; _ } -> fun () -> (f, ignore)
  | Meter { name } ->
    let c =
      Metrics.counter Metrics.default "iocov_pipe_stage_events_total"
        ~labels:[ ("stage", name) ]
        ~help:"Events entering a metered pipeline stage."
    in
    fun () ->
      let n = ref 0 in
      ( (fun e ->
          incr n;
          Some e),
        fun () ->
          Metrics.Counter.add c !n;
          n := 0 )

let rec run_steps e = function
  | [] -> Some e
  | step :: rest -> (
    match step e with
    | Some e -> run_steps e rest
    | None -> None)

let chain = function
  | [] -> None
  | stages ->
    let makers = List.map instance_of stages in
    Some
      (fun () ->
        let steps, credits = List.split (List.map (fun make -> make ()) makers) in
        ((fun e -> run_steps e steps), fun () -> List.iter (fun credit -> credit ()) credits))

let compile = function
  | Keep f :: rest -> (Some f, chain rest)
  | stages -> (None, chain stages)
