module Engine = Iocov_regex.Engine
module Metrics = Iocov_obs.Metrics

(* Filter decisions, process-wide.  "no_hint" records cannot be
   attributed to any mount; "no_match" ones belong to other paths. *)
let m_result result =
  Metrics.counter Metrics.default "iocov_filter_events_total"
    ~labels:[ ("result", result) ]
    ~help:"Mount-point filter decisions."

let m_kept = m_result "kept"
let m_dropped_no_hint = m_result "dropped_no_hint"
let m_dropped_no_match = m_result "dropped_no_match"

(* Compiled patterns are immutable (see {!Iocov_regex.Engine}), so a
   filter is shareable across domains: the parallel pipeline compiles
   once and every worker shard matches against the same value. *)
type t = { keep : Engine.t array }

let create ~patterns =
  let rec go acc = function
    | [] -> Ok { keep = Array.of_list (List.rev acc) }
    | p :: rest ->
      (match Engine.compile p with
       | Ok c -> go (c :: acc) rest
       | Error msg -> Error (Printf.sprintf "pattern %S: %s" p msg))
  in
  go [] patterns

let create_exn ~patterns =
  match create ~patterns with
  | Ok t -> t
  | Error msg -> invalid_arg ("Filter.create_exn: " ^ msg)

(* Escape regex metacharacters so a literal mount point can be embedded in
   a pattern. *)
let escape_literal s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      (match c with
       | '.' | '*' | '+' | '?' | '(' | ')' | '[' | ']' | '{' | '}' | '|' | '^' | '$' | '\\' ->
         Buffer.add_char buf '\\'
       | _ -> ());
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let mount_point mnt =
  let mnt = if String.length mnt > 1 && mnt.[String.length mnt - 1] = '/' then
      String.sub mnt 0 (String.length mnt - 1)
    else mnt
  in
  create_exn ~patterns:[ Printf.sprintf "^%s(/|$)" (escape_literal mnt) ]

(* The one pattern traversal, entered only for records that carry a
   hint — the no-hint drop never touches the pattern array. *)
let matches_hint t hint = Array.exists (fun c -> Engine.search c hint) t.keep

(* The metered decision: classify, count, answer. *)
let decide t (e : Event.t) =
  match e.path_hint with
  | None ->
    Metrics.Counter.incr m_dropped_no_hint;
    false
  | Some hint ->
    if matches_hint t hint then begin
      Metrics.Counter.incr m_kept;
      true
    end
    else begin
      Metrics.Counter.incr m_dropped_no_match;
      false
    end

(* [keeps] stays a pure query: callers probing a record (reports,
   ad-hoc analysis) must not distort the pipeline's drop counters. *)
let keeps t (e : Event.t) =
  match e.path_hint with
  | None -> false
  | Some hint -> matches_hint t hint

(* The fused decoder classifies hints itself (it never builds events),
   so it borrows the classification and reports the batched counts
   here — same counters, same totals as [keep_all]. *)
let meter ~kept ~no_hint ~no_match =
  if kept > 0 then Metrics.Counter.add m_kept kept;
  if no_hint > 0 then Metrics.Counter.add m_dropped_no_hint no_hint;
  if no_match > 0 then Metrics.Counter.add m_dropped_no_match no_match

type stats = { kept : int; dropped : int }

let fold t ~init ~f events =
  let acc, kept, dropped =
    List.fold_left
      (fun (acc, kept, dropped) e ->
        if decide t e then (f acc e, kept + 1, dropped) else (acc, kept, dropped + 1))
      (init, 0, 0) events
  in
  (acc, { kept; dropped })

(* --- the shard-local verdict memo ---

   A live workload names a few hundred distinct paths across hundreds of
   thousands of records, and every regex run allocates, so one owner (a
   session, a shard, a batch) remembers each hint's verdict.  The memo
   is mutable and therefore never shared: [t] stays immutable and
   domain-safe, and each owner makes its own.  It also tallies the
   decisions it makes and credits them to the filter counters in one
   batch, so worker domains stay off each other's cache lines. *)
module Memo = struct
  module Hints = Hashtbl.Make (String)

  type filter = t

  type t = {
    filter : filter;
    verdicts : bool Hints.t;
    mutable kept : int;
    mutable no_hint : int;
    mutable no_match : int;
  }

  let bound = 4096

  let create filter =
    { filter; verdicts = Hints.create 64; kept = 0; no_hint = 0; no_match = 0 }

  (* Bounded by starting over: a memo that fills up is a workload with
     more distinct paths than the bound, and forgetting everything costs
     one regex run per hint on the way back. *)
  let matches m hint =
    match Hints.find m.verdicts hint with
    | verdict -> verdict
    | exception Not_found ->
      let verdict = matches_hint m.filter hint in
      if Hints.length m.verdicts >= bound then Hints.reset m.verdicts;
      Hints.add m.verdicts hint verdict;
      verdict

  let size m = Hints.length m.verdicts

  let decide m (e : Event.t) =
    match e.path_hint with
    | None ->
      m.no_hint <- m.no_hint + 1;
      false
    | Some hint ->
      if matches m hint then begin
        m.kept <- m.kept + 1;
        true
      end
      else begin
        m.no_match <- m.no_match + 1;
        false
      end

  let credit m =
    meter ~kept:m.kept ~no_hint:m.no_hint ~no_match:m.no_match;
    m.kept <- 0;
    m.no_hint <- 0;
    m.no_match <- 0
end

(* The chunk pipeline's batched decision: same classification and the
   same counters as [decide], metered with three adds per batch. *)
let keep_all t events =
  let m = Memo.create t in
  let out = List.filter (Memo.decide m) events in
  Memo.credit m;
  out

let sink t k e = if decide t e then k e

