open Iocov_syscall
module Fs = Iocov_vfs.Fs
module Metrics = Iocov_obs.Metrics
module Clock = Iocov_obs.Clock

(* Self-observability: every tracer in the process reports into the
   default registry.  Handles are resolved once; the per-event cost is
   one field increment plus one array read for the per-kind counter. *)
let m_events =
  Metrics.counter Metrics.default "iocov_tracer_events_total"
    ~help:"Trace records emitted, before any filtering."

let m_emit_latency =
  Metrics.histogram Metrics.default "iocov_tracer_emit_latency_ns"
    ~help:"Sink dispatch latency per record, sampled every 64th event."

(* Per-kind counters: the 27 modeled variants by [Model.variant_index],
   then the auxiliary operations by [aux_index].  A slot is registered
   on its first call, so kinds a run never makes stay out of the
   registry. *)
let aux_index = function
  | Fs.Unlink _ -> 0
  | Fs.Rmdir _ -> 1
  | Fs.Rename _ -> 2
  | Fs.Symlink _ -> 3
  | Fs.Link _ -> 4
  | Fs.Fsync _ -> 5
  | Fs.Fdatasync _ -> 6
  | Fs.Sync -> 7
  | Fs.Crash -> 8

let kind_counters : Metrics.Counter.t option array = Array.make (Model.variant_count + 9) None

let kind_counter slot name =
  match kind_counters.(slot) with
  | Some c -> c
  | None ->
    let c =
      Metrics.counter Metrics.default "iocov_tracer_calls_total"
        ~labels:[ ("syscall", name) ]
        ~help:"Calls executed through the tracer by syscall kind."
    in
    kind_counters.(slot) <- Some c;
    c

type t = {
  fs : Fs.t;
  pid : int;
  comm : string;
  mutable seq : int;
  mutable sinks : (Event.t -> unit) list;  (* registration order *)
  fd_paths : (int, string option) Hashtbl.t;  (* always [Some]: hints as stored *)
  mutable cwd : string;
}

let create ?(pid = 1000) ?(comm = "tester") fs =
  { fs; pid; comm; seq = 0; sinks = []; fd_paths = Hashtbl.create 32; cwd = "/" }

let fs t = t.fs
let on_event t sink = t.sinks <- t.sinks @ [ sink ]
let events_emitted t = t.seq
let cwd t = t.cwd

(* The index of the first '/' at or after [i], or the length. *)
let next_slash s i =
  let n = String.length s in
  let rec go i = if i >= n || String.unsafe_get s i = '/' then i else go (i + 1) in
  go i

(* An absolute path with no empty, "." or ".." component and no
   trailing slash (other than the root itself): what [absolutize]
   would rebuild, so it can be returned as is. *)
let canonical p =
  let n = String.length p in
  let rec from i =
    (* [p.[i]] is a '/' that starts a component *)
    let j = next_slash p (i + 1) in
    let len = j - i - 1 in
    len > 0
    && (not (len = 1 && p.[i + 1] = '.'))
    && (not (len = 2 && p.[i + 1] = '.' && p.[i + 2] = '.'))
    && (j = n || from j)
  in
  n > 0 && p.[0] = '/' && (n = 1 || from 0)

(* Fold [path]'s components onto [buf.[0..len)], a canonical prefix
   without its trailing slash ("" for the root); returns the new
   length.  "." is dropped, ".." removes the last component (the root
   is its own parent). *)
let fold_into buf len path =
  let n = String.length path in
  let rec go len i =
    if i >= n then len
    else if path.[i] = '/' then go len (i + 1)
    else begin
      let j = next_slash path i in
      let c = j - i in
      if c = 1 && path.[i] = '.' then go len j
      else if c = 2 && path.[i] = '.' && path.[i + 1] = '.' then
        match Bytes.rindex_from_opt buf (len - 1) '/' with
        | Some k when len > 0 -> go k j
        | _ -> go 0 j
      else begin
        Bytes.set buf len '/';
        Bytes.blit_string path i buf (len + 1) c;
        go (len + 1 + c) j
      end
    end
  in
  go len 0

(* Normalize a possibly-relative pathname against a canonical cwd;
   "." / ".." components are folded so hints are canonical.  Workloads
   mostly pass canonical absolute paths, which come back unchanged. *)
let absolutize ~cwd path =
  let absolute = String.length path > 0 && path.[0] = '/' in
  if absolute && canonical path then path
  else begin
    let buf = Bytes.create (String.length cwd + String.length path + 1) in
    let base = if absolute || cwd = "/" then 0 else String.length cwd in
    Bytes.blit_string cwd 0 buf 0 base;
    let len = fold_into buf base path in
    if len = 0 then "/" else Bytes.sub_string buf 0 len
  end

(* A descriptor's hint: the stored option itself, so a lookup allocates
   nothing. *)
let fd_hint t fd = match Hashtbl.find t.fd_paths fd with h -> h | exception Not_found -> None

let path_hint t p = Some (absolutize ~cwd:t.cwd p)

let hint_of_target t = function
  | Model.Path p -> path_hint t p
  | Model.Fd fd -> fd_hint t fd

let hint_of_call t call =
  match call with
  | Model.Open_call { path; _ } | Model.Mkdir_call { path; _ } -> path_hint t path
  | Model.Read_call { fd; _ }
  | Model.Write_call { fd; _ }
  | Model.Lseek_call { fd; _ }
  | Model.Close_call { fd } -> fd_hint t fd
  | Model.Truncate_call { target; _ }
  | Model.Chmod_call { target; _ }
  | Model.Chdir_call { target }
  | Model.Setxattr_call { target; _ }
  | Model.Getxattr_call { target; _ } -> hint_of_target t target

(* Keep the fd table and cwd in sync with successful calls.  [hint] is
   the call's own, computed before it ran: for an open or a chdir it is
   exactly the path to remember. *)
let post_process t call outcome hint =
  match (call, outcome, hint) with
  | Model.Open_call _, Model.Ret fd, Some _ ->
    (match Fs.fd_path t.fs fd with
     | Some _ -> Hashtbl.replace t.fd_paths fd hint
     | None -> () (* O_TMPFILE: anonymous *))
  | Model.Close_call { fd }, Model.Ret _, _ -> Hashtbl.remove t.fd_paths fd
  | Model.Chdir_call _, Model.Ret _, Some path -> t.cwd <- path
  | _ -> ()

let rec dispatch event = function
  | [] -> ()
  | sink :: rest ->
    sink event;
    dispatch event rest

let emit t payload outcome path_hint =
  t.seq <- t.seq + 1;
  Metrics.Counter.incr m_events;
  let event =
    {
      Event.seq = t.seq;
      timestamp_ns = t.seq * 811;  (* logical time: strictly monotone *)
      pid = t.pid;
      comm = t.comm;
      payload;
      outcome;
      path_hint;
    }
  in
  if t.seq land 63 = 0 then begin
    let t0 = Clock.now () in
    dispatch event t.sinks;
    Metrics.Histogram.observe m_emit_latency
      (int_of_float ((Clock.now () -. t0) *. 1e9))
  end
  else dispatch event t.sinks

let exec t call =
  let v = Model.variant_of_call call in
  Metrics.Counter.incr (kind_counter (Model.variant_index v) (Model.variant_name v));
  let hint = hint_of_call t call in
  let outcome = Fs.exec t.fs call in
  post_process t call outcome hint;
  emit t (Event.Tracked call) outcome hint;
  outcome

(* The text [Printf.sprintf "k=%S"] and ["k1=%S, k2=%S"] make (%S
   quotes [String.escaped]), built without the format interpreter. *)
let quoted k v = String.concat "" [ k; "=\""; String.escaped v; "\"" ]

let quoted2 k1 v1 k2 v2 =
  String.concat ""
    [ k1; "=\""; String.escaped v1; "\", "; k2; "=\""; String.escaped v2; "\"" ]

let aux_detail t aux =
  match (aux : Fs.aux) with
  | Fs.Unlink p | Fs.Rmdir p -> (quoted "path" p, path_hint t p)
  | Fs.Rename (o, n) -> (quoted2 "old" o "new" n, path_hint t o)
  | Fs.Symlink (target, link) -> (quoted2 "target" target "link" link, path_hint t link)
  | Fs.Link (e, n) -> (quoted2 "old" e "new" n, path_hint t e)
  | Fs.Fsync fd | Fs.Fdatasync fd -> ("fd=" ^ string_of_int fd, fd_hint t fd)
  | Fs.Sync | Fs.Crash -> ("", None)

let exec_aux t aux =
  Metrics.Counter.incr
    (kind_counter (Model.variant_count + aux_index aux) (Fs.aux_name aux));
  let detail, hint = aux_detail t aux in
  let result = Fs.exec_aux t.fs aux in
  (match aux with
   | Fs.Crash ->
     (* all descriptors die with the crash *)
     Hashtbl.reset t.fd_paths;
     t.cwd <- "/"
   | _ -> ());
  let outcome =
    match result with Ok n -> Model.Ret n | Error e -> Model.Err e
  in
  emit t (Event.Aux { name = Fs.aux_name aux; detail }) outcome hint;
  result
