(** Sample statistics and histograms for the benchmark harness. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  ci95 : float;  (** half-width of the 95% confidence interval of the mean *)
}

val summarize : float array -> summary
(** [summarize samples] computes a summary; requires a non-empty array. *)

val mean : float array -> float
val median : float array -> float

val percentile : float array -> float -> float
(** [percentile samples p] for [p] in [\[0,100\]] (nearest-rank, on a sorted
    copy).  [p = 0] is the minimum, [p = 100] the maximum.
    @raise Invalid_argument when [p] is outside [\[0, 100\]]. *)

val summary_to_string : summary -> string
(** One-line [n=… mean=… stddev=… min=… max=… ci95=…] rendering. *)

val minor_words_per_op : iters:int -> (unit -> unit) -> float
(** [minor_words_per_op ~iters f] runs [f] once to warm, then measures the
    {!Gc.minor_words} delta over [iters] further calls and reports the mean
    words of minor-heap allocation per call.  0.0 means the operation is
    allocation-free. *)

(** Log2-bucketed integer histograms (HDR-style): preallocated int arrays,
    so {!Lhist.record} never allocates — usable from armed fastpath
    instrumentation.  Bucket 0 holds value 0; bucket [i > 0] holds
    [\[2^(i-1), 2^i)]. *)
module Lhist : sig
  type t

  val create : unit -> t

  val record : t -> int -> unit
  (** Count one sample (negatives clamp to 0).  Allocation-free. *)

  val count : t -> int

  val sum : t -> int
  (** The exact sum of the recorded samples. *)

  val add : t -> t -> unit
  (** [add into h] folds [h]'s samples into [into]. *)

  val min_value : t -> int
  val max_value : t -> int
  val mean : t -> float

  val percentile : t -> float -> int
  (** Nearest-rank over the buckets; reports the covering bucket's midpoint
      clamped into [\[min_value, max_value\]].  [p = 0] and [p = 100] report
      the exact minimum and maximum.  0 on an empty histogram.
      @raise Invalid_argument when [p] is outside [\[0, 100\]]. *)

  val reset : t -> unit

  val nbuckets : int
  val bucket_count : t -> int -> int
  val bucket_lo : int -> int
  (** Inclusive lower bound of bucket [i]. *)

  val to_string : t -> string
  (** One-line [n … min … p50 … p90 … p99 … max … mean …] rendering. *)
end

(** The kernel's counters.  Each is declared once, in [Counters], and
    each dcache owns one fixed table of all of them: per-domain atomic
    slots indexed by id, so bumps from concurrent domains are never lost
    and (mostly) uncontended. *)
module Counter : sig
  type id
  type t

  val declare : string -> id
  (** A new counter, for module initialisation only.
      @raise Invalid_argument on a duplicate name, or once a table exists. *)

  val name : id -> string

  val create : unit -> t
  (** A zeroed table of every declared counter. *)

  val bump : t -> id -> unit
  (** Count one on the calling domain's slot.  Allocation-free. *)

  val add : t -> id -> int -> unit
  (** Allocation-free. *)

  val get : t -> id -> int
  (** Sum over all domain slots. *)

  val reset : t -> unit

  val to_assoc : t -> (string * int) list
  (** Every declared counter, zeros included, sorted by name. *)
end
