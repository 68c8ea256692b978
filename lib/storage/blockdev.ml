module Fault = Dcache_util.Fault
module Prng = Dcache_util.Prng
module Inttbl = Dcache_util.Inttbl
module Errno = Dcache_types.Errno

type config = {
  block_size : int;
  block_count : int;
  seek_ns : int64;
  sequential_ns : int64;
  transfer_ns : int64;
}

let default_config =
  {
    block_size = 4096;
    block_count = 1 lsl 18;
    seek_ns = 8_000_000L;
    sequential_ns = 50_000L;
    transfer_ns = 25_000L;
  }

(* Fault sites of one device.  [corrupt] supplies the payload randomness of
   the corruption modes (which bit flips, where a torn write tears), kept
   separate from the schedule PRNGs so arming one mode never shifts
   another's choices. *)
type faults = {
  read_fail : Fault.site;
  write_fail : Fault.site;
  torn_write : Fault.site;
  read_bitflip : Fault.site;
  corrupt : Prng.t;
}

type t = {
  config : config;
  clock : Dcache_util.Vclock.t;
  (* Blocks are allocated lazily: a fresh device reads as zeroes. *)
  store : bytes Inttbl.t;
  mutable last_block : int;
  mutable read_count : int;
  mutable write_count : int;
  faults : faults option;
  mutable read_errors : int;
  mutable write_errors : int;
}

let attach_faults injector =
  {
    read_fail = Fault.site injector "blockdev.read_eio";
    write_fail = Fault.site injector "blockdev.write_eio";
    torn_write = Fault.site injector "blockdev.torn_write";
    read_bitflip = Fault.site injector "blockdev.read_bitflip";
    corrupt = Prng.create (Fault.seed injector lxor 0x626c6b);
  }

let create ?(config = default_config) ?faults clock =
  {
    config;
    clock;
    store = Inttbl.create 1024;
    last_block = -2;
    read_count = 0;
    write_count = 0;
    faults = Option.map attach_faults faults;
    read_errors = 0;
    write_errors = 0;
  }

let block_size t = t.config.block_size
let block_count t = t.config.block_count

let charge_access t n =
  let position_cost =
    if n = t.last_block + 1 then t.config.sequential_ns else t.config.seek_ns
  in
  Dcache_util.Vclock.charge t.clock (Int64.add position_cost t.config.transfer_ns);
  t.last_block <- n

let check_bounds t n =
  if n < 0 || n >= t.config.block_count then
    invalid_arg (Printf.sprintf "Blockdev: block %d out of range" n)

let read_block t n =
  check_bounds t n;
  charge_access t n;
  t.read_count <- t.read_count + 1;
  match t.faults with
  | None -> (
    match Inttbl.find_opt t.store n with
    | Some data -> Bytes.copy data
    | None -> Bytes.make t.config.block_size '\000')
  | Some f ->
    if Fault.fire f.read_fail then begin
      t.read_errors <- t.read_errors + 1;
      raise (Errno.Error Errno.EIO)
    end;
    let data =
      match Inttbl.find_opt t.store n with
      | Some data -> Bytes.copy data
      | None -> Bytes.make t.config.block_size '\000'
    in
    if Fault.fire f.read_bitflip then begin
      (* Transient corruption (a bad transfer, not bad media): the flip
         lives only in this copy, so a re-read may see clean data. *)
      let bit = Prng.int f.corrupt (t.config.block_size * 8) in
      let byte = bit / 8 in
      Bytes.set data byte (Char.chr (Char.code (Bytes.get data byte) lxor (1 lsl (bit mod 8))))
    end;
    data

let write_block t n data =
  check_bounds t n;
  if Bytes.length data <> t.config.block_size then
    invalid_arg "Blockdev.write_block: wrong block size";
  charge_access t n;
  t.write_count <- t.write_count + 1;
  match t.faults with
  | None -> Inttbl.replace t.store n (Bytes.copy data)
  | Some f ->
    if Fault.fire f.write_fail then begin
      t.write_errors <- t.write_errors + 1;
      raise (Errno.Error Errno.EIO)
    end;
    if Fault.fire f.torn_write then begin
      (* Power failed mid-write: a sector-aligned prefix of the new data
         lands, the tail keeps the old contents, and nobody is told.  The
         damage is only discoverable later (fsck, checksums). *)
      let sectors = t.config.block_size / 512 in
      let keep = 512 * Prng.int f.corrupt sectors in
      let merged =
        match Inttbl.find_opt t.store n with
        | Some old -> Bytes.copy old
        | None -> Bytes.make t.config.block_size '\000'
      in
      Bytes.blit data 0 merged 0 keep;
      Inttbl.replace t.store n merged
    end
    else Inttbl.replace t.store n (Bytes.copy data)

let read_block_result t n =
  match read_block t n with
  | data -> Ok data
  | exception Errno.Error e -> Error e

let write_block_result t n data =
  match write_block t n data with
  | () -> Ok ()
  | exception Errno.Error e -> Error e

let reads t = t.read_count
let writes t = t.write_count
let read_errors t = t.read_errors
let write_errors t = t.write_errors

let reset_stats t =
  t.read_count <- 0;
  t.write_count <- 0;
  t.read_errors <- 0;
  t.write_errors <- 0
