(** End-to-end correctness audits.

    Two checks distilled from the paper's safety obligations, packaged for
    property tests and the CLI:

    - {!mutual_consistency}: after quiescence, every node in [StA] holds a
      byte-identical state carrying the same version — the invariant the
      whole meta-information machinery exists to protect (§2.3(1));
    - {!counter_stress}: an {e accounting} audit. Clients add random
      amounts to a counter object under randomized schemes, policies and
      node churn; every action that reported commit contributes its
      amount, every abort must contribute nothing, and retries across
      coordinator failovers must apply exactly once. At the end the
      committed store value must equal the sum of acknowledged additions —
      lost updates, phantom applies and double applies all break it. *)

val mutual_consistency :
  Naming.Service.t -> Store.Uid.t -> (unit, string) result
(** [Error] describes the first violation found. *)

val chaos : Naming.Service.t -> string list
(** Consolidated post-chaos audit, meaningful only after the world has
    drained (and, when faults crashed clients, after cleanup swept the
    orphans). Checks every object's [StA] mutual consistency, use-list
    quiescence (no orphaned counters), a non-empty naming-database lock
    table (held locks or unreclaimed entries) and staged action state,
    unresolved 2PC reservations in every reachable intent log, server instance residue (held locks, staged invocations),
    and leaked (still-suspended) fibers of live nodes. Returns one line
    per violation — empty means the world quiesced clean. *)

type stress_report = {
  sr_attempts : int;
  sr_commits : int;
  sr_expected_total : int;  (** sum of committed additions *)
  sr_actual_total : int;  (** final committed counter value *)
  sr_consistent : bool;  (** {!mutual_consistency} verdict *)
}

val exact : stress_report -> bool
(** Accounting holds and the stores are mutually consistent. *)

val counter_stress :
  ?seed:int64 ->
  ?clients:int ->
  ?actions_per_client:int ->
  ?server_churn:bool ->
  ?store_churn:bool ->
  ?policy:Replica.Policy.t ->
  ?gvd_nodes:Net.Network.node_id list ->
  ?bind_cache_lease:float ->
  unit ->
  stress_report
(** Run the audit workload to completion (defaults: 3 clients × 8 actions,
    both churn kinds on, active replication over 2 servers). [gvd_nodes]
    and [bind_cache_lease] exercise the sharded naming tier and the
    client bind cache under the same accounting obligations. *)

val pp_report : Format.formatter -> stress_report -> unit
