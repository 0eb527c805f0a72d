(** Time-keyed binary min-heap, the simulator's event queue.

    Each entry is a value under a float key (the event's due time). Entries
    pop in key order; entries with equal keys pop in the order they were
    pushed, so the queue realises the engine's (time, insertion sequence)
    order without a comparison closure. Keys live unboxed in a
    [Float.Array] beside the values: pushing does not box the key and
    popping does not allocate an option. [push] and [pop] are O(log n);
    [min_key], [length] and [is_empty] are O(1). *)

type 'a t
(** A mutable min-heap of ['a] values under float keys. *)

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val length : 'a t -> int
(** [length h] is the number of entries currently stored in [h]. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> float -> 'a -> unit
(** [push h k x] inserts [x] under key [k], after every entry already in
    [h] with key [k]. [k] must not be NaN. *)

val min_key : 'a t -> float
(** [min_key h] is the smallest key in [h].
    @raise Invalid_argument if [h] is empty. *)

val pop : 'a t -> 'a
(** [pop h] removes and returns the entry with the smallest key, the
    earliest pushed among equal keys.
    @raise Invalid_argument if [h] is empty. *)

val clear : 'a t -> unit
(** [clear h] removes every entry from [h]. *)
