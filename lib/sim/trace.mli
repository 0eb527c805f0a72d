(** Structured event trace.

    Components append timestamped, tagged entries; tests and experiment
    harnesses query the trace to assert protocol behaviour ("no client bound
    to an excluded store", "coordinator elected exactly once"). Tracing can
    be disabled wholesale for benchmark runs. *)

type entry = {
  at : float;  (** virtual time of the event *)
  tag : string;  (** component tag, e.g. ["rpc"], ["gvd"], ["2pc"] *)
  detail : string;  (** human-readable description *)
}

type t
(** A trace sink. *)

val create : ?enabled:bool -> unit -> t
(** [create ()] is an empty trace, recording by default. *)

val set_enabled : t -> bool -> unit
(** Toggle recording. Disabled traces drop entries with no allocation
    beyond the call itself. *)

val enabled : t -> bool
(** Whether the trace records. *)

val record : t -> now:float -> tag:string -> string -> unit
(** [record t ~now ~tag detail] appends one entry. *)

val recordf :
  t -> now:float -> tag:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted variant of {!record}. A disabled trace records nothing and
    formats nothing, but the caller has already evaluated the arguments,
    and the format still builds a closure per argument; a site on a
    per-action path tests {!enabled} first. *)

val entries : t -> entry list
(** All entries in chronological (append) order. *)

val with_tag : t -> string -> entry list
(** Entries whose [tag] equals the argument, in order. *)

val count : t -> tag:string -> int
(** Number of entries with the given tag. *)

val find : t -> tag:string -> substring:string -> entry list
(** Entries with the given tag whose detail contains [substring]. *)

val clear : t -> unit
(** Drop all entries. *)

val pp : Format.formatter -> t -> unit
(** Render the whole trace, one entry per line. *)
