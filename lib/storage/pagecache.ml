module Dlist = Dcache_util.Dlist
module Fault = Dcache_util.Fault
module Inttbl = Dcache_util.Inttbl

(* [referenced]: hit since the clock hand last passed the page. *)
type page = { block : int; data : bytes; mutable dirty : bool; mutable referenced : bool }

type t = {
  device : Blockdev.t;
  capacity : int;
  pages : page Inttbl.t;
  clock : page Dlist.t;  (* new pages go in at the front; the hand takes the back *)
  mutable hit_count : int;
  mutable miss_count : int;
  mutable writeback_count : int;
}

let create ?(capacity_pages = 4096) device =
  assert (capacity_pages > 0);
  {
    device;
    capacity = capacity_pages;
    pages = Inttbl.create 1024;
    clock = Dlist.create ();
    hit_count = 0;
    miss_count = 0;
    writeback_count = 0;
  }

let block_size t = Blockdev.block_size t.device

let writeback t page =
  if page.dirty then begin
    Blockdev.write_block t.device page.block page.data;
    page.dirty <- false;
    t.writeback_count <- t.writeback_count + 1
  end

(* CLOCK: the hand takes the back of the list; a marked page loses its
   mark and rotates to the front, an unmarked one is evicted.  One lap
   clears every mark, so the hand stops within two. *)
let rec evict_one t =
  match Dlist.pop_back t.clock with
  | None -> ()
  | Some node ->
    let page = Dlist.value node in
    if page.referenced then begin
      page.referenced <- false;
      Dlist.push_front t.clock node;
      evict_one t
    end
    else begin
      writeback t page;
      Inttbl.remove t.pages page.block
    end

(* A hit sets the page's mark and moves nothing: no list splice, no
   allocation. *)
let lookup t n =
  match Inttbl.find t.pages n with
  | page ->
    t.hit_count <- t.hit_count + 1;
    if not page.referenced then page.referenced <- true;
    page
  | exception Not_found ->
    t.miss_count <- t.miss_count + 1;
    if Inttbl.length t.pages >= t.capacity then evict_one t;
    let data = Blockdev.read_block t.device n in
    let page = { block = n; data; dirty = false; referenced = false } in
    Inttbl.add t.pages n page;
    Dlist.push_front t.clock (Dlist.node page);
    page

(* FNV-1a over the page, for the debug-mode mutation check.  Cheap enough
   to run twice per access when enabled, and any accidental store through a
   read-only view changes it with overwhelming probability. *)
let page_sum data =
  let h = ref 0x811c9dc5 in
  for i = 0 to Bytes.length data - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get data i)) * 0x01000193 land 0x3FFFFFFFFFFFFFF
  done;
  !h

let with_page t n f =
  let page = lookup t n in
  if !Fault.checks_enabled then begin
    let before = page_sum page.data in
    let result = f page.data in
    if page_sum page.data <> before then
      failwith
        (Printf.sprintf
           "Pagecache.with_page: callback mutated block %d (use with_page_mut)" n);
    result
  end
  else f page.data

let with_page_mut t n f =
  let page = lookup t n in
  page.dirty <- true;
  f page.data

let read_page t n = Bytes.copy (lookup t n).data

let write_page t n data =
  if Bytes.length data <> block_size t then invalid_arg "Pagecache.write_page: wrong size";
  let page = lookup t n in
  Bytes.blit data 0 page.data 0 (Bytes.length data);
  page.dirty <- true

let flush t = Dlist.iter (fun page -> writeback t page) t.clock

let drop_caches t =
  flush t;
  Inttbl.reset t.pages;
  while Dlist.pop_front t.clock <> None do
    ()
  done

(* Power loss: every cached page vanishes, dirty ones without writeback.
   The device is left holding exactly what was flushed (or evicted) before
   the crash — the state Extfs_fsck judges recovery from. *)
let crash t =
  let lost = ref 0 in
  Dlist.iter (fun page -> if page.dirty then incr lost) t.clock;
  Inttbl.reset t.pages;
  while Dlist.pop_front t.clock <> None do
    ()
  done;
  !lost

let hits t = t.hit_count
let misses t = t.miss_count
let writebacks t = t.writeback_count
let cached_pages t = Inttbl.length t.pages

let reset_stats t =
  t.hit_count <- 0;
  t.miss_count <- 0;
  t.writeback_count <- 0
