(** A hash table keyed by [int], with a monomorphic hash and equality.

    The generic [Hashtbl] calls the polymorphic [caml_hash] and
    [caml_compare] primitives on every operation; this table's key
    functions are plain integer arithmetic, so warm-path lookups (fd
    table, page cache, icache, per-credential PCC table) do only the work
    they name. *)

include Hashtbl.S with type key = int
