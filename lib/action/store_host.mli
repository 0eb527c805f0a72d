(** Hosting of object stores on nodes, with transactional write endpoints.

    Each participating node gets a stable {!Store.Object_store.t} and a
    stable {!Store.Intent_log.t}; this module registers the RPC endpoints
    through which remote servers read states (activation, §3.1) and write
    them under two-phase commit (commit processing, §2.3(3)).

    Contents survive crashes. What a crash does interrupt is protocol
    participation: a node that crashes between [prepare] and [commit] holds
    an in-doubt record that {!Recovery} resolves against the coordinator's
    decision record. *)

type t
(** The store-hosting runtime for one simulated world. *)

val create : Net.Rpc.t -> t
(** [create rpc] is a runtime with no hosted stores yet. *)

val rpc : t -> Net.Rpc.t

val add : t -> Net.Network.node_id -> unit
(** Equip [node] with a store and an intent log and register the store
    service endpoints on it. *)

val hosted : t -> Net.Network.node_id -> bool

val nodes : t -> Net.Network.node_id list
(** Every node with a store, sorted. *)

val objects : t -> Net.Network.node_id -> Store.Object_store.t
(** Direct (out-of-band) access to a node's object store; used for
    bootstrap and test assertions, never by protocol code. *)

val log : t -> Net.Network.node_id -> Store.Intent_log.t
(** Direct access to a node's intent log, same caveats. *)

val seed : t -> Net.Network.node_id -> Store.Uid.t -> Store.Object_state.t -> unit
(** Out-of-band initial placement of an object state on a node (creating
    the object before the simulation starts). *)

(* Remote operations; all must be called from a fiber on [from]. *)

val read :
  t ->
  from:Net.Network.node_id ->
  store:Net.Network.node_id ->
  Store.Uid.t ->
  (Store.Object_state.t option, Net.Rpc.error) result
(** Read the committed state of an object from a store node. *)

type delta = {
  d_impl : string;  (** implementation folding the ops *)
  d_base : int;
      (** committed counter the suffix starts above: the store must hold
          exactly this version for the delta to apply *)
  d_steps : (Store.Version.t * string list) list;
      (** the op suffix, oldest first; contiguous versions
          [d_base+1 ..], each with the ops that produced it *)
}
(** A delta write: the operation suffix [(d_base, target]] of an object's
    committed history, shipped in place of the full state when the
    coordinator knows the store already holds version [d_base] (see
    {!Replica.Oplog}). The store folds the ops over its committed payload
    {e at prepare time} and stages the resulting full state, so phase 2,
    in-doubt resolution and recovery replay are identical to the
    full-state path. *)

type write = Full of Store.Object_state.t | Delta of delta

(** A participant's phase-1 vote. [Vote_yes levels] carries, per prepared
    object, the committed counter the store held when it staged the write
    ([-1] = nothing yet): coordinators fold these levels into the shared
    per-(store,object) floor ({!Replica.Oplog.note_store}), so even a
    first-contact writer can base its next copy-back on a delta.

    [Vote_stale] is backward validation:
    the incoming state's version is not the direct successor of what the
    store holds, meaning the writer worked from a stale activation (e.g.
    two clients activated disjoint replica sets during churn — the
    split-brain the Arjuna lock store prevents physically). The action
    must abort; excluding the store would be wrong, it is healthy.

    [Vote_delta_miss c] refuses a delta whose base does not match the
    store's committed counter [c] ([-1] when the store holds nothing), or
    that the store cannot fold (no applier, unknown implementation, an op
    that fails). Nothing was staged; the coordinator reseeds its
    acknowledged-version vector from [c] and retries with full state. *)
type vote =
  | Vote_yes of (Store.Uid.t * int) list
  | Vote_stale
  | Vote_delta_miss of int

val prepare :
  t ->
  from:Net.Network.node_id ->
  store:Net.Network.node_id ->
  action:string ->
  coordinator:Net.Network.node_id ->
  (Store.Uid.t * Store.Object_state.t) list ->
  (vote, Net.Rpc.error) result
(** Phase-1 write of full states: validate versions and record intentions
    durably on [store]; [Ok (Vote_yes _)] is a yes-vote. *)

val commit :
  t ->
  from:Net.Network.node_id ->
  store:Net.Network.node_id ->
  action:string ->
  (unit, Net.Rpc.error) result
(** Phase-2: apply the intentions of [action]. Idempotent; applying a
    state older than what the store already holds is skipped, making
    recovery replays safe. *)

val abort :
  t ->
  from:Net.Network.node_id ->
  store:Net.Network.node_id ->
  action:string ->
  (unit, Net.Rpc.error) result
(** Phase-2 abort: discard the intentions of [action]. *)

val prepare_all :
  t ->
  from:Net.Network.node_id ->
  stores:Net.Network.node_id list ->
  action:string ->
  coordinator:Net.Network.node_id ->
  (Store.Uid.t * Store.Object_state.t) list ->
  (Net.Network.node_id * (vote, Net.Rpc.error) result) list
(** Scatter {!prepare} to every store concurrently ({!Net.Rpc.call_all});
    votes come back in store order. The commit-time state copy (§2.3(3))
    issues this one parallel write to all of [StA] instead of a chain of
    blocking calls, so its latency is one round-trip, not [|St|] of them. *)

val prepare_each :
  t ->
  from:Net.Network.node_id ->
  ?hedge:Net.Rpc.hedge ->
  ?deadline_at:float ->
  ?alt_of:(Net.Network.node_id -> Net.Network.node_id option) ->
  action:string ->
  coordinator:Net.Network.node_id ->
  (Net.Network.node_id * (Store.Uid.t * write) list) list ->
  (Net.Network.node_id * (vote, Net.Rpc.error) result) list
(** Like {!prepare_all} but with a per-store write list, so the copy-back
    can ship a delta to stores whose acknowledged version it knows and
    full state to the rest — still one concurrent scatter.

    The 2PC fan-outs take an optional hedging policy and propagated
    deadline (see {!Net.Rpc.call_all}). Hedging is safe here: a replayed
    prepare re-stages the same intent ({!Store.Intent_log.prepare}
    replaces per action), and commit/abort resolve idempotently, so a
    duplicate delivery changes nothing.

    [alt_of] (effective only together with [hedge]) routes a leg's backup
    copy to a {e sibling} [St] member instead of re-sending to the same
    node: when it maps a destination to [Some sibling], the backup races
    against that node, and a sibling win is reported as the leg's
    [Error Timed_out] — the sibling's answer is never passed off as the
    primary's. Prepare legs cancel the losing primary cooperatively (an
    unstaged prepare is harmless once the leg counts as failed); phase-2
    legs keep the primary copy in flight ({!Net.Rpc.call_hedged}'s
    [keep_primary]) because the primary must still apply its decision.
    The caller must only map to siblings that hold every object in the
    leg's write list. *)

val commit_all :
  t ->
  from:Net.Network.node_id ->
  ?hedge:Net.Rpc.hedge ->
  ?deadline_at:float ->
  ?alt_of:(Net.Network.node_id -> Net.Network.node_id option) ->
  stores:Net.Network.node_id list ->
  string ->
  (Net.Network.node_id * (unit, Net.Rpc.error) result) list
(** [commit_all t ~from ~stores action]: scatter {!commit} (phase-2) to
    every store concurrently. *)

val abort_all :
  t ->
  from:Net.Network.node_id ->
  ?hedge:Net.Rpc.hedge ->
  ?deadline_at:float ->
  ?alt_of:(Net.Network.node_id -> Net.Network.node_id option) ->
  stores:Net.Network.node_id list ->
  string ->
  (Net.Network.node_id * (unit, Net.Rpc.error) result) list
(** [abort_all t ~from ~stores action]: scatter {!abort} (phase-2 abort /
    prepare withdrawal) concurrently. *)

(** {2 Group-commit rounds} (see {!Replica.Groupcommit})

    One RPC round per store carrying per-action sub-records for a whole
    batch of concurrent commits. The store runs the per-action phase-1
    logic over each sub-record in order — validation, write reservations,
    intent-log staging, the prepare/reservation hooks and duplicate
    delivery replacement are exactly the solo path's, so one member's
    refusal ([Vote_stale]/[Vote_delta_miss]) affects only that member's
    vote, never its batchmates. *)

type prepare_req = {
  pr_action : string;
  pr_coordinator : string;
  pr_writes : (Store.Uid.t * write) list;
}
(** One batch member's phase-1 sub-record for one store: the same triple
    the solo {!prepare_each} sends, just bundled. *)

val prepare_batch :
  t ->
  from:Net.Network.node_id ->
  ?hedge:Net.Rpc.hedge ->
  ?deadline_at:float ->
  (Net.Network.node_id * prepare_req list) list ->
  (Net.Network.node_id * ((string * vote) list, Net.Rpc.error) result) list
(** Scatter one batched prepare per store; each store answers a per-action
    vote list (in sub-record order). *)

val commit_batch :
  t ->
  from:Net.Network.node_id ->
  ?hedge:Net.Rpc.hedge ->
  ?deadline_at:float ->
  ?alt_of:(Net.Network.node_id -> Net.Network.node_id option) ->
  (Net.Network.node_id * string list) list ->
  (Net.Network.node_id * ((Store.Uid.t * int) list, Net.Rpc.error) result) list
(** Scatter one batched phase-2 commit per store: the store applies each
    listed action's intentions ({e idempotent, per action}) and its ack
    carries the post-apply committed counter of each object those
    intentions wrote — the acked-version floor the coordinator
    folds into {!Replica.Oplog.note_store}. The ack is sized by the batch,
    never by the store: objects the batch did not write get no floor
    from it. A duplicate delivery, whose
    intentions already resolved, acks an empty list. [alt_of]
    sibling-routes as in {!commit_all} (a sibling win is the leg's
    error, so a sibling's floors are never mistaken for the primary's);
    batched {e prepares} deliberately never take an alt map — one
    store's batch can carry sub-records of actions whose [St] does not
    include the sibling, and a staged intent there would dangle
    forever. *)

val ping :
  t ->
  from:Net.Network.node_id ->
  store:Net.Network.node_id ->
  (unit, Net.Rpc.error) result
(** A read-only round trip to [store] carrying no payload: a liveness and
    latency probe whose cost does not grow with the store. *)

val decision :
  t ->
  from:Net.Network.node_id ->
  coordinator:Net.Network.node_id ->
  action:string ->
  (Store.Intent_log.decision option, Net.Rpc.error) result
(** Query a coordinator's decision record (used by recovery; presumed
    abort applies when the coordinator has forgotten the action). *)

val set_prepare_hook :
  t ->
  (node:Net.Network.node_id -> action:string -> coordinator:string -> unit) ->
  unit
(** Install a callback invoked (on the store node, within the prepare
    handler) for every accepted prepare. {!Recovery.guard_prepares} uses
    it to arrange in-doubt resolution should the coordinator crash. *)

val set_reservation_hook :
  t ->
  (node:Net.Network.node_id -> blockers:(string * string) list -> unit) ->
  unit
(** Install a callback invoked (on the store node, within the prepare
    handler) when a prepare is refused because other actions hold write
    reservations on the objects. [blockers] lists each blocking action
    with its coordinator. {!Recovery.break_stale_reservations} uses it to
    resolve reservations whose coordinator has been partitioned away. *)

val set_delta_applier :
  t -> (impl:string -> payload:string -> op:string -> string option) -> unit
(** Install the operation folder delta prepares resolve with ([None]
    refuses the op and misses the delta). Stores sit below the
    object-implementation registry, so the world-assembly layer injects
    this; a runtime without one answers every delta with
    [Vote_delta_miss]. *)

val record_decision :
  t -> node:Net.Network.node_id -> action:string -> Store.Intent_log.decision -> unit
(** Durably record a decision on the local node; the caller must be the
    coordinator running on [node]. Direct (non-RPC) because a coordinator
    writes its own stable storage. *)
