(** Directory-cache configuration.

    [baseline] models unmodified Linux 3.14; [optimized] enables every
    optimization the paper proposes.  Individual flags exist so the benchmark
    harness can ablate each design choice (paper §6, Fig. 2 series). *)

type dotdot_semantics =
  | Dotdot_linux  (** check permissions at every [..] (paper §4.2) *)
  | Dotdot_lexical  (** Plan 9 lexical preprocessing of [..] *)

type t = {
  (* §3: hit latency *)
  fastpath : bool;  (** direct lookup via DLHT + PCC *)
  pcc_entries : int;
      (** prefix-check-cache capacity ceiling.  Each table starts at
          [min pcc_entries 4096], the paper's static 64 KB, and doubles up
          to this bound when replacement churns (§6.3 leaves resizing as
          future work); at or below 4096 the table is static *)
  dlht_buckets : int;
      (** direct lookup hash table buckets at creation (paper: 2^16); the
          table doubles in one write-locked rehash past two entries per
          bucket *)
  sig_bits : int;  (** signature bits compared (paper: 240) *)
  prefix_resume : bool;
      (** on a DLHT miss, resume the slowpath from the longest cached,
          PCC-validated ancestor prefix instead of walking from the
          root/cwd (§3.5); includes negative fast-fail on cached-negative
          or DIR_COMPLETE ancestors *)
  symlink_aliases : bool;  (** cache symlink resolutions as alias dentries (§4.2) *)
  dotdot : dotdot_semantics;
  (* §5: hit rate *)
  dir_completeness : bool;  (** DIR_COMPLETE tracking + readdir from cache (§5.1) *)
  aggressive_negative : bool;
      (** negatives on rename/unlink + pseudo-fs (§5.2).  Applies only
          under incomplete directories: a DIR_COMPLETE directory is its own
          negative cache and holds no negative children (§5.1) *)
  deep_negative : bool;
      (** deep ENOENT/ENOTDIR dentries (§5.2).  Applies only below a
          negative or a non-directory, i.e. never directly under a
          DIR_COMPLETE directory, which answers its absent names itself *)
  neg_list_cap : int;
      (** per-stripe negative-dentry LRU list capacity (§6.3 decay/shrink
          study): a create/stat storm of unique absent names evicts the
          oldest negative on its own stripe once the stripe's list exceeds
          this bound, so negatives can neither grow the cache without limit
          nor serialize eviction on a global lock; 0 disables the bound.
          Only incomplete directories hold negatives, so only their
          absent names fill the lists *)
  (* substrate sizing *)
  dcache_buckets : int;  (** primary hash table buckets (Linux default 262144) *)
  max_dentries : int;  (** dcache capacity before CLOCK eviction *)
  dcache_stripes : int;
      (** stripes in the sharded mutation path's lock table (power of two);
          0 funnels every mutation through the single global write lock
          (the pre-sharding behaviour, kept as the scaling baseline) *)
}

let baseline =
  {
    fastpath = false;
    pcc_entries = 4096;
    dlht_buckets = 1 lsl 16;
    sig_bits = 240;
    prefix_resume = false;
    symlink_aliases = false;
    dotdot = Dotdot_linux;
    dir_completeness = false;
    aggressive_negative = false;
    deep_negative = false;
    neg_list_cap = 4096;
    dcache_buckets = 1 lsl 18;
    max_dentries = 1 lsl 20;
    dcache_stripes = 0;
  }

let optimized =
  {
    baseline with
    fastpath = true;
    pcc_entries = 65536;
    prefix_resume = true;
    symlink_aliases = true;
    dir_completeness = true;
    aggressive_negative = true;
    deep_negative = true;
    dcache_stripes = 128;
  }
