let rec skip_slashes s i stop =
  if i < stop && String.unsafe_get s i = '/' then skip_slashes s (i + 1) stop else i

let rec component_end s i stop =
  if i < stop && String.unsafe_get s i <> '/' then component_end s (i + 1) stop else i

let rec last_end s stop =
  if stop > 0 && String.unsafe_get s (stop - 1) = '/' then last_end s (stop - 1) else stop

let rec last_start s stop =
  if stop > 0 && String.unsafe_get s (stop - 1) <> '/' then last_start s (stop - 1) else stop

let trailing_slash s = String.length s > 1 && s.[String.length s - 1] = '/'

(* Is some component from [i] on longer than [max_name_len]? *)
let rec name_too_long ~max_name_len s i =
  let n = String.length s in
  let i = skip_slashes s i n in
  i < n
  &&
  let j = component_end s i n in
  j - i > max_name_len || name_too_long ~max_name_len s j

let check ~max_name_len ~max_path_len s =
  let open Iocov_syscall in
  if String.length s = 0 then Some Errno.ENOENT
  else if String.length s > max_path_len then Some Errno.ENAMETOOLONG
  else if name_too_long ~max_name_len s 0 then Some Errno.ENAMETOOLONG
  else None

let join dir name =
  if dir = "" then name
  else if String.length dir > 0 && dir.[String.length dir - 1] = '/' then dir ^ name
  else dir ^ "/" ^ name

let basename p =
  let stop = last_end p (String.length p) in
  if stop = 0 then "/"
  else
    let start = last_start p stop in
    String.sub p start (stop - start)
