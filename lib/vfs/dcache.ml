open Dcache_types
open Types
module Dlist = Dcache_util.Dlist
module Inttbl = Dcache_util.Inttbl
module Rwlock = Dcache_util.Rwlock
module Seqcount = Dcache_util.Seqcount
module Locktab = Dcache_util.Locktab
module Counter = Dcache_util.Stats.Counter
module Counters = Dcache_util.Counters
module Trace = Dcache_util.Trace
module Timers = Dcache_util.Timers
module Fs_intf = Dcache_fs.Fs_intf

type hooks = { mutable on_shootdown : dentry -> unit }

type t = {
  config : Config.t;
  buckets : dentry list Atomic.t array;
      (** primary hash table.  Each bucket holds an immutable list updated
          by CAS, so two sharded writers whose parents collide on a bucket
          never lose each other's splice, and lockless readers scan a
          consistent snapshot of the chain. *)
  count : int Atomic.t;
  next_id : int Atomic.t;
      (** dentry id generator: ids are per dcache, so a tree's ids (and the
          PCC set conflicts they decide) do not depend on what other
          kernels in the program allocated *)
  next_seq : int Atomic.t;
      (** version generator: a dentry slot "reallocated" for a new path
          starts with a version no stale PCC entry can match (§3.1) *)
  clock : dentry Dlist.t;  (** reclaim list; front = recently inserted *)
  lru_mu : Mutex.t;
      (** serializes reclaim-list splices reachable from sharded mutation
          sections ([alloc_child]/[detach]); the clock is one global
          intrusive list, so stripe locks cannot protect it.  Bulk clock
          work (eviction, purge, scrub) runs only under the exclusive
          write lock and needs no extra serialization. *)
  tick : int Atomic.t;
  lock : Rwlock.t;
  rename_lock : Seqcount.t;
  write_seq : Seqcount.t;
      (** dcache-wide write sequence for the lockless fastpath (§3.2):
          every exclusive write section ([with_write]) bumps it, so an
          optimistic reader that snapshots it even and revalidates it
          unchanged has provably raced no exclusive mutation — DLHT rehash
          included.  Sharded mutations do NOT bump it: they bump
          the stripe seqcounts the reader records per probed dentry
          instead (the per-entry half of the validation protocol). *)
  invalidation : int Atomic.t;
  stripes : Locktab.t option;
      (** the sharded mutation path's lock table, keyed by parent-directory
          identity: stripe [parent.d_id land mask] serializes all mutation
          of that directory's children (their state/name/seq, the parent's
          child list, its DIR_COMPLETE flag and dir generation).  [None]
          when [dcache_stripes = 0] or the fastpath is off — every
          mutation then funnels through [with_write] as before. *)
  neg_lists : dentry Dlist.t array;
      (** per-stripe negative-dentry LRU lists (§6.3, DragonFly-style):
          slot [i] tracks every cached negative whose parent hashes to
          stripe [i], most recently created first.  A list is mutated only
          under its stripe's lock (or under the exclusive write lock, which
          excludes every sharded section), so a create/stat storm of unique
          names bounds and evicts negatives without a global lock.  One
          slot when unsharded — everything is then under the write lock. *)
  hooks : hooks;
  counters : Counter.t;
  timers : Timers.t;
}

let create config =
  let sharded = config.Config.fastpath && config.Config.dcache_stripes > 0 in
  {
    config;
    buckets = Array.init config.Config.dcache_buckets (fun _ -> Atomic.make []);
    count = Atomic.make 0;
    next_id = Atomic.make 1;
    next_seq = Atomic.make 1;
    clock = Dlist.create ();
    lru_mu = Mutex.create ();
    tick = Atomic.make 0;
    lock = Rwlock.create ();
    rename_lock = Seqcount.create ();
    write_seq = Seqcount.create ();
    invalidation = Atomic.make 0;
    stripes =
      (* Only the fastpath's probe validates the stripes it read; the
         baseline's read-locked walk does not, so sharded writers (which
         hold the read side too) could race it. *)
      (if sharded then Some (Locktab.create config.Config.dcache_stripes) else None);
    neg_lists =
      Array.init
        (if sharded then config.Config.dcache_stripes else 1)
        (fun _ -> Dlist.create ());
    hooks = { on_shootdown = (fun _ -> ()) };
    counters = Counter.create ();
    timers = Timers.create ();
  }

let config t = t.config
let hooks t = t.hooks
let counters t = t.counters
let timers t = t.timers
let lock t = t.lock
let rename_lock t = t.rename_lock
let write_seq t = t.write_seq
let stripes t = t.stripes
let sharded t = t.stripes <> None
let with_read t f = Rwlock.with_read t.lock f

(* The write sequence is bumped strictly inside the write lock, so it is
   never incremented concurrently and readers see it odd exactly while a
   write section is open.  Sharded mutation sections hold the lock's READ
   side: they exclude [with_write] (and are excluded by it) but run
   concurrently with each other, serialized per-stripe. *)
let with_write t f =
  Rwlock.write_lock t.lock;
  (* Residual-global accounting: with stripes on, every mutation that still
     funnels through the exclusive lock (global-scope syscalls, eviction,
     DLHT grow, subtree invalidation too wide to stripe) shows up here, surfaced
     in /proc/dcache/stripes so the sharding follow-ons can be tracked. *)
  Counter.bump t.counters Counters.global_write_acquired;
  Seqcount.write_begin t.write_seq;
  match f () with
  | result ->
    Seqcount.write_end t.write_seq;
    Rwlock.write_unlock t.lock;
    result
  | exception e ->
    Seqcount.write_end t.write_seq;
    Rwlock.write_unlock t.lock;
    raise e
let invalidation_counter t = Atomic.get t.invalidation
let dentry_count t = Atomic.get t.count

(* Occupancy histogram of the primary hash table (paper §6.5): index i =
   buckets holding i entries; the last slot aggregates longer chains. *)
let bucket_occupancy t =
  let hist = Array.make 5 0 in
  Array.iter
    (fun bucket ->
      let len = Int.min (List.length (Atomic.get bucket)) (Array.length hist - 1) in
      hist.(len) <- hist.(len) + 1)
    t.buckets;
  hist

let new_tick t = Atomic.fetch_and_add t.tick 1 + 1

(* --- inode cache ---

   The icache table is touched from sharded mutation sections (a created
   file's iget, an unlinked file's iforget) on different stripes at once, so
   the superblock's leaf mutex serializes it; the critical section is a
   single table operation. *)

let iget sb (attr : Attr.t) =
  Mutex.lock sb.sb_icache_mu;
  let inode =
    match Inttbl.find_opt sb.sb_icache attr.ino with
    | Some inode ->
      (* The caller just heard [attr] from the file system; adopt it, or a
         refill after a remote mutation would serve the stale snapshot. *)
      Inode.adopt_attr inode attr;
      inode
    | None ->
      let inode = Inode.make ~fs:sb.sb_fs attr in
      Inttbl.add sb.sb_icache attr.ino inode;
      inode
  in
  Mutex.unlock sb.sb_icache_mu;
  inode

(* Forget a dead inode so a recycled inode number cannot resurrect stale
   attributes (the iput-side eviction of Linux's inode cache). *)
let iforget sb ino =
  Mutex.lock sb.sb_icache_mu;
  Inttbl.remove sb.sb_icache ino;
  Mutex.unlock sb.sb_icache_mu

let make_superblock t fs =
  match fs.Fs_intf.getattr fs.Fs_intf.root_ino with
  | Error _ as e -> Result.map (fun _ -> assert false) e
  | Ok attr ->
    let sb =
      {
        sb_fs = fs;
        sb_icache = Inttbl.create 256;
        sb_icache_mu = Mutex.create ();
        sb_root = None;
        sb_neg_gen = 0;
      }
    in
    let inode = iget sb attr in
    let root =
      {
        d_id = Atomic.fetch_and_add t.next_id 1;
        d_name = "";
        d_parent = None;
        d_state = Positive inode;
        d_sb = sb;
        d_children = Dlist.create ();
        d_sibling = None;
        d_lru = None;
        d_neg = None;
        d_neg_gen = 0;
        d_refcount = Atomic.make 1;
        d_hashed = false;
        d_last_used = 0;
        d_complete = false;
        d_dir_gen = 0;
        d_seq = Atomic.fetch_and_add t.next_seq 1;
        d_sig = None;
        d_hstate = None;
        d_dlht_ns = None;
        d_dlht_next = None;
        d_dlht_prev = None;
        d_mnt = None;
        d_alias = None;
        d_target_sig = None;
      }
    in
    sb.sb_root <- Some root;
    Ok sb

let sb_root sb = match sb.sb_root with Some d -> d | None -> assert false

(* --- primary hash table ---

   One name hash and one chain scan serve every child lookup, with the
   name [path.[pos, pos+len)] read in place: top-level recursions, no
   closure, nothing allocated.  The hash is FNV-1a over the name, mixed
   with the parent identity — the shape of Linux's (parent pointer, name)
   hash (§2.2, Fig. 4). *)
let rec fnv path pos stop h =
  if pos >= stop then h
  else fnv path (pos + 1) stop ((h lxor Char.code (String.unsafe_get path pos)) * 0x100000001b3)

let bucket t parent_id path ~pos ~len =
  let h = fnv path pos (pos + len) 0xbf29ce484222325 in
  let h = h lxor (parent_id * 0x1e3779b97f4a7c15) in
  let h = h lxor (h lsr 29) in
  t.buckets.(h land (Array.length t.buckets - 1))

let rec name_eq name path pos i len =
  i >= len
  || (String.unsafe_get name i = String.unsafe_get path (pos + i) && name_eq name path pos (i + 1) len)

let rec chain_find parent path pos len = function
  | [] -> raise_notrace Not_found
  | d :: rest ->
    if
      (match d.d_parent with Some p -> p == parent | None -> false)
      && String.length d.d_name = len
      && name_eq d.d_name path pos 0 len
    then d
    else chain_find parent path pos len rest

let find_child t parent path ~pos ~len =
  chain_find parent path pos len (Atomic.get (bucket t parent.d_id path ~pos ~len))

let find t parent path ~pos ~len =
  let d = find_child t parent path ~pos ~len in
  d.d_last_used <- Atomic.get t.tick;
  Counter.bump t.counters Counters.dcache_hit;
  d

let lookup t parent name =
  match find t parent name ~pos:0 ~len:(String.length name) with
  | d -> Some d
  | exception Not_found -> None

(* Read-only (no LRU tick, no hit accounting), for the lockless prefix
   fast-fail scan (§3.5). *)
let contains_child t parent path ~pos ~len =
  match find_child t parent path ~pos ~len with _ -> true | exception Not_found -> false

(* Bucket splices are CAS loops over the immutable chain: two sharded
   writers whose (distinct, separately-striped) parents collide on a
   bucket retry instead of losing each other's update.  Within one stripe
   splices are already serialized, so the loop terminates after at most a
   handful of cross-stripe collisions. *)
let rec bucket_cons slot d =
  let cur = Atomic.get slot in
  if not (Atomic.compare_and_set slot cur (d :: cur)) then bucket_cons slot d

let rec bucket_excise slot d =
  let cur = Atomic.get slot in
  let next = List.filter (fun other -> not (other == d)) cur in
  if not (Atomic.compare_and_set slot cur next) then bucket_excise slot d

let name_bucket t d =
  let parent_id = match d.d_parent with Some p -> p.d_id | None -> 0 in
  bucket t parent_id d.d_name ~pos:0 ~len:(String.length d.d_name)

let hash_insert t d =
  bucket_cons (name_bucket t d) d;
  d.d_hashed <- true

let hash_remove t d =
  bucket_excise (name_bucket t d) d;
  d.d_hashed <- false

let iter_children d f = List.iter f (Dlist.to_list d.d_children)

(* --- per-stripe negative-dentry lists (§6.3) ---

   Every cached negative is tracked on the list of its parent's stripe, so
   the lock already held by whatever created it (the parent's stripe in a
   sharded section, the exclusive write lock otherwise) also covers the
   list splice and any eviction it triggers: victims on the same list have
   parents on the same stripe by construction. *)

let neg_index t parent =
  match t.stripes with Some tab -> Locktab.index tab parent.d_id | None -> 0

let neg_list_of t d =
  match d.d_parent with
  | None -> t.neg_lists.(0) (* roots are never negative *)
  | Some parent -> t.neg_lists.(neg_index t parent)

(* Drop [d] from its stripe's negative list (promotion to positive, or any
   removal from the cache).  Callers hold the lock that covers [d]. *)
let neg_forget t d =
  match d.d_neg with
  | None -> ()
  | Some node ->
    Dlist.remove (neg_list_of t d) node;
    d.d_neg <- None

(* --- eviction ---

   Clock-with-pins: dentries are evicted from the back of the reclaim list;
   pinned dentries, dentries with cached children (the bottom-up invariant),
   and recently used dentries get rotated to the front.  Evicting a child
   clears the parent's DIR_COMPLETE flag (§5.1). *)

(* [reclaim] distinguishes space reclamation (which breaks the parent's
   DIR_COMPLETE invariant) from coherent removal tracking an fs mutation,
   which preserves completeness (§5.1). *)
let clock_remove t d =
  Mutex.lock t.lru_mu;
  (match d.d_lru with Some node -> Dlist.remove t.clock node | None -> ());
  d.d_lru <- None;
  Mutex.unlock t.lru_mu

let clock_push_front t d node =
  Mutex.lock t.lru_mu;
  Dlist.push_front t.clock node;
  d.d_lru <- Some node;
  Mutex.unlock t.lru_mu

let detach ?(reclaim = true) t d =
  neg_forget t d;
  hash_remove t d;
  (match (d.d_parent, d.d_sibling) with
  | Some parent, Some node ->
    Dlist.remove parent.d_children node;
    if reclaim && parent.d_complete then begin
      parent.d_complete <- false;
      Counter.bump t.counters Counters.completeness_lost
    end
  | _ -> ());
  d.d_sibling <- None;
  clock_remove t d;
  t.hooks.on_shootdown d;
  d.d_sig <- None;
  d.d_hstate <- None;
  d.d_alias <- None;
  d.d_target_sig <- None;
  ignore (Atomic.fetch_and_add t.count (-1))

let evictable d =
  Atomic.get d.d_refcount = 0 && Dlist.is_empty d.d_children && d.d_parent <> None

(* Bounded negative caching (§6.3): shrink [list] to [cap] by evicting from
   the back (the oldest negatives).  Entries that turned positive in place
   (alias retargeting) or are somehow pinned just lose their tracking node —
   the pop still shrinks the list, so the loop terminates.  Eviction is a
   coherent removal ([reclaim:false]): a negative is not a real child, so
   the parent's DIR_COMPLETE claim survives it. *)
let rec neg_shrink t list cap =
  if Dlist.length list > cap then begin
    match Dlist.pop_back list with
    | None -> ()
    | Some node ->
      let victim = Dlist.value node in
      victim.d_neg <- None;
      if dentry_is_negative victim && evictable victim && victim.d_hashed then begin
        detach ~reclaim:false t victim;
        Counter.bump t.counters Counters.neg_evicted
      end;
      neg_shrink t list cap
  end

(* Track a dentry that just became negative: stamp the per-mount generation
   it was earned under, splice it onto its stripe's list, and enforce the
   bound.  Caller holds the parent's stripe or the write lock. *)
let neg_note_created t d =
  d.d_neg_gen <- d.d_sb.sb_neg_gen;
  let cap = t.config.Config.neg_list_cap in
  if cap > 0 then begin
    let list = neg_list_of t d in
    (match d.d_neg with
    | Some _ -> ()
    | None ->
      let node = Dlist.node d in
      Dlist.push_front list node;
      d.d_neg <- Some node);
    neg_shrink t list cap
  end

(* --- per-mount generation invalidation (DragonFly-style) ---

   Bumping the superblock's generation lazily invalidates every cached
   negative on it: verdict sites compare the dentry's stamped generation
   (one int compare, allocation-free) and treat a mismatch as a miss; the
   stale dentry itself is dropped by the next write-locked walk that trips
   over it. *)

(* Public alias: in-place transitions *to* negative outside this module
   (alias retargeting in the walk) must join the tracking list too. *)
let neg_track = neg_note_created

let negative_current d =
  match d.d_state with
  | Negative _ -> d.d_neg_gen = d.d_sb.sb_neg_gen
  | Positive _ | Partial _ -> true

let invalidate_negatives t sb =
  sb.sb_neg_gen <- sb.sb_neg_gen + 1;
  Counter.bump t.counters Counters.neg_gen_invalidations

let neg_list_cap t = t.config.Config.neg_list_cap
let neg_occupancy t = Array.map Dlist.length t.neg_lists

(* Eviction and purge run only under the exclusive write lock (never from
   a sharded section), so their clock traversal needs no [lru_mu] — the
   [detach] they call still takes it, uncontended. *)
let evict_some t want =
  let evicted = ref 0 in
  (* Enough attempts that every entry can consume its second chance and
     still be revisited. *)
  let attempts = ref ((2 * Dlist.length t.clock) + 1) in
  while !evicted < want && !attempts > 0 do
    decr attempts;
    match Dlist.pop_back t.clock with
    | None -> attempts := 0
    | Some node ->
      let d = Dlist.value node in
      d.d_lru <- None;
      if not (evictable d) then begin
        Dlist.push_front t.clock node;
        d.d_lru <- Some node
      end
      else if d.d_last_used > Atomic.get t.tick - (t.config.Config.max_dentries / 4)
      then begin
        (* Second chance for recently used entries. *)
        d.d_last_used <- d.d_last_used - (t.config.Config.max_dentries / 2);
        Dlist.push_front t.clock node;
        d.d_lru <- Some node
      end
      else begin
        Dlist.push_back t.clock node;
        d.d_lru <- Some node;
        detach t d;
        Counter.bump t.counters Counters.dcache_evicted;
        incr evicted
      end
  done;
  !evicted

(* Unconditional reclaim of every unpinned dentry (drop_caches): recency is
   ignored, and passes repeat because evicting leaves exposes parents. *)
let purge t =
  let rec sweep () =
    let evicted = ref 0 in
    let attempts = ref (Dlist.length t.clock) in
    while !attempts > 0 do
      decr attempts;
      match Dlist.pop_back t.clock with
      | None -> attempts := 0
      | Some node ->
        let d = Dlist.value node in
        Dlist.push_front t.clock node;
        if evictable d then begin
          detach t d;
          Counter.bump t.counters Counters.dcache_evicted;
          incr evicted
        end
    done;
    if !evicted > 0 then sweep ()
  in
  sweep ()

let maybe_reclaim t =
  let count = Atomic.get t.count in
  if count > t.config.Config.max_dentries then
    ignore (evict_some t (count - t.config.Config.max_dentries))

(* Capacity enforcement for the sharded path.  A sharded section cannot
   evict (the clock walk touches dentries on arbitrary stripes), so
   [alloc_child] defers reclaim there; callers invoke this after dropping
   all their locks, and it upgrades to the exclusive write lock only when
   the cache actually overflowed. *)
let reclaim_overflow t =
  if Atomic.get t.count > t.config.Config.max_dentries then
    with_write t (fun () -> maybe_reclaim t)

(* --- allocation --- *)

let alloc_child t parent name state =
  let d =
    {
      d_id = Atomic.fetch_and_add t.next_id 1;
      d_name = name;
      d_parent = Some parent;
      d_state = state;
      d_sb = parent.d_sb;
      d_children = Dlist.create ();
      d_sibling = None;
      d_lru = None;
      d_neg = None;
      d_neg_gen = 0;
      d_refcount = Atomic.make 0;
      d_hashed = false;
      d_last_used = Atomic.get t.tick;
      d_complete = false;
      d_dir_gen = 0;
      d_seq = Atomic.fetch_and_add t.next_seq 1;
      d_sig = None;
      d_hstate = None;
      d_dlht_ns = None;
      d_dlht_next = None;
      d_dlht_prev = None;
      d_mnt = None;
      d_alias = None;
      d_target_sig = None;
    }
  in
  let sibling = Dlist.node d in
  Dlist.push_back parent.d_children sibling;
  d.d_sibling <- Some sibling;
  clock_push_front t d (Dlist.node d);
  hash_insert t d;
  (match state with Negative _ -> neg_note_created t d | Positive _ | Partial _ -> ());
  ignore (Atomic.fetch_and_add t.count 1);
  (* Inline reclaim needs the exclusive lock; a sharded section (read side
     held) defers it to the caller's post-section [reclaim_overflow]. *)
  if t.stripes = None || Rwlock.write_held t.lock then maybe_reclaim t;
  d

let add_child t parent name state =
  match lookup t parent name with
  | Some _ -> Error Errno.EEXIST
  | None -> Ok (alloc_child t parent name state)

let dget d = ignore (Atomic.fetch_and_add d.d_refcount 1)

let dput d =
  let old = Atomic.fetch_and_add d.d_refcount (-1) in
  assert (old > 0)

(* --- fill (the dcache miss path) --- *)

let should_cache_negatives t sb =
  sb.sb_fs.Fs_intf.negative_dentries || t.config.Config.aggressive_negative

let fill t parent name =
  Counter.bump t.counters Counters.dcache_miss;
  let sb = parent.d_sb in
  match dentry_inode parent with
  | None -> Error Errno.ENOENT
  | Some dir_inode -> (
    match sb.sb_fs.Fs_intf.lookup (Inode.ino dir_inode) name with
    | Ok attr ->
      let inode = iget sb attr in
      Ok (alloc_child t parent name (Positive inode))
    | Error Errno.ENOENT ->
      if should_cache_negatives t sb then begin
        Counter.bump t.counters Counters.negative_created;
        Ok (alloc_child t parent name (Negative Errno.ENOENT))
      end
      else Error Errno.ENOENT
    | Error _ as e -> Result.map (fun _ -> assert false) e)

let promote d =
  match d.d_state with
  | Positive inode -> Ok inode
  | Negative e -> Error e
  | Partial { p_ino; _ } -> (
    match d.d_sb.sb_fs.Fs_intf.getattr p_ino with
    | Ok attr ->
      let inode = iget d.d_sb attr in
      d.d_state <- Positive inode;
      Ok inode
    | Error _ as e -> Result.map (fun _ -> assert false) e)

(* --- invalidation (§3.2) --- *)

let bump_seq t d = d.d_seq <- Atomic.fetch_and_add t.next_seq 1

let rec walk_subtree d f =
  f d;
  List.iter (fun child -> walk_subtree child f) (Dlist.to_list d.d_children)

let invalidate_permissions t dir =
  if not t.config.Config.fastpath then 0
  else begin
    let visited = ref 0 in
    iter_children dir (fun child ->
        walk_subtree child (fun d ->
            incr visited;
            bump_seq t d));
    Atomic.incr t.invalidation;
    Trace.stamp Trace.ev_inval_chmod !visited;
    Counter.add t.counters Counters.invalidate_permission_dentries !visited;
    Counter.add t.counters Counters.invalidated_by_chmod !visited;
    !visited
  end

let shootdown t d =
  bump_seq t d;
  t.hooks.on_shootdown d;
  d.d_sig <- None;
  d.d_hstate <- None;
  d.d_target_sig <- None

let invalidate_structure t dentry =
  if not t.config.Config.fastpath then 0
  else begin
    let visited = ref 0 in
    walk_subtree dentry (fun d ->
        incr visited;
        shootdown t d);
    Atomic.incr t.invalidation;
    Trace.stamp Trace.ev_inval_rename !visited;
    Counter.add t.counters Counters.invalidate_structure_dentries !visited;
    Counter.add t.counters Counters.invalidated_by_rename !visited;
    !visited
  end

(* --- unhash / negative conversion / rename --- *)

let is_complete t d = t.config.Config.dir_completeness && d.d_complete

let rec drop_children t d =
  iter_children d (fun child ->
      drop_children t child;
      detach ~reclaim:false t child)

(* Dropping [d]'s children drops the listing its DIR_COMPLETE claim rests
   on, so the claim goes too: a removed directory still pinned as a cwd
   must send lookups inside it to the file system, not answer ENOENT from
   an empty child list (§5.1). *)
let unhash ?(reclaim = false) t d =
  drop_children t d;
  d.d_complete <- false;
  if d.d_hashed then detach ~reclaim t d

let make_negative t d errno =
  assert (Dlist.is_empty d.d_children);
  (* The canonical path and its prefix checks are unchanged: the dentry
     keeps its signature, DLHT entry, and version, so the fastpath serves
     the new negative result immediately (§5.2). *)
  d.d_state <- Negative errno;
  d.d_complete <- false;
  d.d_alias <- None;
  d.d_target_sig <- None;
  neg_note_created t d;
  Counter.bump t.counters Counters.negative_created

(* A complete directory is its own negative cache (§5.1): under one the
   name is dropped, not kept as a negative, and the listing answers its
   absence.  Negatives are cached only under incomplete directories. *)
let note_unlinked t d =
  match d.d_parent with
  | None -> ()
  | Some parent ->
    if is_complete t parent then unhash t d
    else if Atomic.get d.d_refcount = 0 && Dlist.is_empty d.d_children then
      make_negative t d Errno.ENOENT
    else begin
      let name = d.d_name in
      unhash t d;
      (* Aggressive negative caching (§5.2): the name itself stays cached as
         a negative dentry even though the old dentry lives on unhashed. *)
      if t.config.Config.aggressive_negative && parent.d_hashed then
        ignore (alloc_child t parent name (Negative Errno.ENOENT))
    end

let d_move t d ~new_parent ~new_name =
  hash_remove t d;
  (* A rename is tracked coherently in the cache: completeness of both the
     old and new parents survives (§5.1). *)
  (match (d.d_parent, d.d_sibling) with
  | Some parent, Some node ->
    Dlist.remove parent.d_children node;
    d.d_sibling <- None
  | _ -> ());
  d.d_parent <- Some new_parent;
  d.d_name <- new_name;
  let sibling = Dlist.node d in
  Dlist.push_back new_parent.d_children sibling;
  d.d_sibling <- Some sibling;
  hash_insert t d

(* --- self check ---

   Structural invariants of the cache, used as a property-test oracle:
   every cached dentry is on the reclaim list, hashed, reachable from its
   parent's child list, findable through the primary hash table, not a
   negative under a DIR_COMPLETE parent (§5.1), and its fast-dentry state
   is internally consistent. *)

let self_check t =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let seen = ref 0 in
  Dlist.iter
    (fun d ->
      incr seen;
      if not d.d_hashed then problem "dentry %d (%s) on reclaim list but unhashed" d.d_id d.d_name;
      (match d.d_parent with
      | None -> problem "dentry %d (%s) on reclaim list without a parent" d.d_id d.d_name
      | Some parent ->
        if not (parent.d_sb == d.d_sb) then
          problem "dentry %d crosses superblocks to its parent" d.d_id;
        if not (parent.d_hashed || parent.d_parent = None) then
          problem "dentry %d (%s) cached under an unhashed parent" d.d_id d.d_name;
        (match d.d_sibling with
        | None -> problem "dentry %d (%s) missing from its parent's child list" d.d_id d.d_name
        | Some node ->
          if not (Dlist.value node == d) then problem "dentry %d sibling node mismatch" d.d_id);
        (match lookup t parent d.d_name with
        | Some found when found == d -> ()
        | Some _ -> problem "hash table finds a different dentry for %d (%s)" d.d_id d.d_name
        | None -> problem "dentry %d (%s) not findable in the hash table" d.d_id d.d_name));
      (match d.d_parent with
      | Some parent when parent.d_complete && dentry_is_negative d ->
        problem "negative dentry %d (%s) under DIR_COMPLETE parent %d" d.d_id d.d_name
          parent.d_id
      | _ -> ());
      if d.d_complete && not (dentry_is_dir d) then
        problem "non-directory dentry %d marked DIR_COMPLETE" d.d_id;
      if d.d_dlht_ns <> None && d.d_sig = None then
        problem "dentry %d in a DLHT without a signature" d.d_id;
      (match d.d_alias with
      | Some real when real == d -> problem "dentry %d aliases itself" d.d_id
      | _ -> ()))
    t.clock;
  let count = Atomic.get t.count in
  if !seen <> count then
    problem "reclaim list holds %d dentries but count is %d" !seen count;
  let in_buckets =
    Array.fold_left (fun acc bucket -> acc + List.length (Atomic.get bucket)) 0 t.buckets
  in
  (* roots are unhashed and not counted; every counted dentry is hashed *)
  if in_buckets <> count then
    problem "hash table holds %d entries but count is %d" in_buckets count;
  List.rev !problems

(* --- scrub ---

   The repairing counterpart of [self_check]: a dentry whose hash-table,
   child-list or reclaim-list state is inconsistent cannot be trusted to
   answer lookups, so it is quarantined — force-detached together with its
   (equally unreachable) cached children.  Detaching runs the shootdown
   hook, so any direct-lookup state the broken dentry still held dies with
   it; the next walk re-resolves from the file system. *)

type scrub_report = {
  scrub_scanned : int;
  scrub_quarantined : int;
  scrub_problems : string list;
}

let scrub t =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let scanned = ref 0 in
  let bad = ref [] in
  Dlist.iter
    (fun d ->
      incr scanned;
      let broken =
        if not d.d_hashed then Some "on the reclaim list but unhashed"
        else
          match d.d_parent with
          | None -> Some "no parent"
          | Some parent -> (
            match d.d_sibling with
            | None -> Some "missing from its parent's child list"
            | Some node when not (Dlist.value node == d) -> Some "sibling node mismatch"
            | Some _ -> (
              match lookup t parent d.d_name with
              | Some found when found == d -> None
              | Some _ -> Some "shadowed in the hash table"
              | None -> Some "not findable in the hash table"))
      in
      match broken with
      | None -> ()
      | Some why ->
        note "quarantined dentry %d (%s): %s" d.d_id d.d_name why;
        bad := d :: !bad)
    t.clock;
  let quarantined = ref 0 in
  List.iter
    (fun d ->
      (* A quarantined parent takes its children down in [drop_children];
         skip entries already detached that way ([d_lru] cleared). *)
      if d.d_lru <> None then begin
        drop_children t d;
        detach ~reclaim:true t d;
        incr quarantined;
        Trace.stamp Trace.ev_quarantine d.d_id;
        Counter.bump t.counters Counters.quarantined;
        Counter.bump t.counters Counters.dcache_quarantined
      end)
    !bad;
  {
    scrub_scanned = !scanned;
    scrub_quarantined = !quarantined;
    scrub_problems = List.rev !problems;
  }

(* --- completeness (§5.1) --- *)

let bump_dir_gen d = d.d_dir_gen <- d.d_dir_gen + 1

let prune_children t d = drop_children t d

let set_complete t d =
  if t.config.Config.dir_completeness && dentry_is_dir d then begin
    iter_children d (fun child -> if dentry_is_negative child then unhash t child);
    d.d_complete <- true;
    Counter.bump t.counters Counters.completeness_set
  end

let clear_complete d = d.d_complete <- false
