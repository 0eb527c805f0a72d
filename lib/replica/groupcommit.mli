(** Coordinator-side group commit: concurrent 2PC copy-backs whose store
    sets overlap merge into one batch that pays one prepare scatter and
    one phase-2 scatter per store ({!Action.Store_host.prepare_batch} /
    [commit_batch]), with the acked-version floors of the batch's objects
    piggybacked on the batched phase-2 acks ({!Oplog.note_store}).

    Batches close on a window ({!set_window}) with quiescence-pull: the
    window ends early as soon as no commit that could still join is in
    flight. Everything transactional stays per action — a member refused
    at any store is peeled out for a solo retry; its batchmates are
    unaffected. With the window at [0.0] (the default) the plane is
    {!enabled}[ = false] and {!Commit.attach} never calls in here, so the
    off path is byte-identical to the unbatched tree. Every store scatter
    the plane issues (solo and batched prepare, phase-2 commit/abort) is
    idempotent at the store, so all of them race a health-delayed backup
    copy whenever the network's gray-failure profile is not
    {!Net.Network.Off}. *)

type t

val create :
  engine:Sim.Engine.t ->
  store_host:Action.Store_host.t ->
  metrics:Sim.Metrics.t ->
  Oplog.t ->
  t
(** One plane per {!Server.runtime}, created with the window at [0.0]. *)

val window : t -> float

val set_window : t -> float -> unit
(** The batch window in simulated time; [0.0] disables the plane. *)

val enabled : t -> bool

(** {2 Phase 1} *)

type token
(** A commit known to be approaching its prepare. While any token is
    outstanding, open batches hold for it (up to their window). *)

val enter : t -> token
(** Commit processing started for some action: open batches may no longer
    quiesce-close until the token arrives ({!prepare}) or leaves. *)

val leave : t -> token -> unit
(** The commit is no longer approaching — it prepared, aborted early, or
    turned out read-only. Idempotent; {!prepare} settles its own token. *)

val prepare :
  t ->
  token ->
  ?alt_of:(Net.Network.node_id -> Net.Network.node_id option) ->
  client:Net.Network.node_id ->
  action:string ->
  (Net.Network.node_id * (Store.Uid.t * Action.Store_host.write) list) list ->
  (Net.Network.node_id * (Action.Store_host.vote, Net.Rpc.error) result) list
(** Join (or open and lead) a batch and return this member's per-store
    votes, shaped exactly like {!Action.Store_host.prepare_each}'s
    result. Suspends up to the window (plus an orphan grace if the batch
    leader died). A multi-member batch vote short of all-yes re-runs the
    solo prepare and returns its verdict instead (peel-out). Must run in
    a fiber on [client].

    [alt_of] is the member's sibling-hedge map
    ({!Action.Store_host.prepare_each}). It applies only to the scatters
    issued on this member's own behalf — the singleton-batch solo
    prepare, the peel-out retry and the orphan fallback; batched
    prepares never alt-route (see
    {!Action.Store_host.prepare_batch}). *)

(** {2 Phase 2} *)

val expect_phase2 : t -> unit
(** Register a sealed commit whose phase 2 is still to come: phase-2
    batches hold their window open for every registration until it
    settles through {!commit_batched} or {!abort_batched}. *)

val commit_batched :
  t ->
  ?alt_of:(Net.Network.node_id -> Net.Network.node_id option) ->
  client:Net.Network.node_id ->
  stores:Net.Network.node_id list ->
  string ->
  (Net.Network.node_id * (unit, Net.Rpc.error) result) list
(** Batched phase-2 commit, shaped like {!Action.Store_host.commit_all}'s
    result. The batch leader folds the floors piggybacked on each store's
    ack into the shared per-(store,object) floor before distributing
    acks. Must run in a fiber on [client].

    [alt_of] sibling-routes the singleton solo scatter, the orphan
    fallback, and — as the leader's map — the batched [commit_batch]
    round (safe: an unknown action resolves as a no-op at the store, and
    a sibling win surfaces as the leg's error so a sibling's floors are
    never folded as the primary's). *)

val abort_batched :
  t ->
  ?alt_of:(Net.Network.node_id -> Net.Network.node_id option) ->
  client:Net.Network.node_id ->
  stores:Net.Network.node_id list ->
  string ->
  (Net.Network.node_id * (unit, Net.Rpc.error) result) list
(** Phase-2 abort: settles the {!expect_phase2} registration and issues
    the ordinary solo abort scatter (aborts are not batched). *)
