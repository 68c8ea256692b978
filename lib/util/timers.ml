type id = int

let access_stat = 0
let open_ = 1
let chmod_chown = 2
let unlink = 3
let other_path = 4
let init = 5
let permission = 6
let scan_hash = 7
let table_lookup = 8
let finalize = 9
let fastpath_hit = 10
let fallback_hit = 11
let slowpath = 12
let negative = 13
let eio = 14
let resume_depth = 15

let names =
  [|
    "access/stat"; "open"; "chmod/chown"; "unlink"; "other path-based";
    "initialization"; "permission check"; "path scanning & hashing"; "hash table lookup";
    "finalization";
    "fastpath_hit"; "fallback_hit"; "slowpath"; "negative"; "eio";
    "resume_depth";
  |]

let n = Array.length names
let name id = names.(id)
let syscalls = [ access_stat; open_; chmod_chown; unlink; other_path ]
let phases = [ init; permission; scan_hash; table_lookup; finalize ]
let outcomes = [ fastpath_hit; fallback_hit; slowpath; negative; eio ]

type group = Syscalls | Lookups

type t = { mutable syscalls : bool; mutable lookups : bool; rows : Stats.Lhist.t array }

let slots = 8

(* Row of timer [id] for slot [s] at [s * n + id]. *)
let create () =
  {
    syscalls = false;
    lookups = false;
    rows = Array.init (slots * n) (fun _ -> Stats.Lhist.create ());
  }

let arm t group on = match group with Syscalls -> t.syscalls <- on | Lookups -> t.lookups <- on

let record t id v =
  Stats.Lhist.record t.rows.((((Domain.self () :> int) land (slots - 1)) * n) + id) v

(* CLOCK_MONOTONIC counts from boot, so a real stamp is never 0. *)
let start armed = if armed then Clock.monotonic_ns () else 0
let stop t id t0 = if t0 <> 0 then record t id (Clock.monotonic_ns () - t0)

let get t id =
  let h = Stats.Lhist.create () in
  for s = 0 to slots - 1 do
    Stats.Lhist.add h t.rows.((s * n) + id)
  done;
  h

let reset t = Array.iter Stats.Lhist.reset t.rows

let histograms_to_string t =
  String.concat ""
    (List.map
       (fun id -> Printf.sprintf "class %s %s\n" names.(id) (Stats.Lhist.to_string (get t id)))
       (outcomes @ [ resume_depth ]))
