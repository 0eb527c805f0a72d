(** Simulated network of fail-silent nodes.

    The network owns the set of nodes, the message latency model, crash and
    recovery of nodes, and optional pairwise partitions. It matches the
    paper's failure assumptions (§2.1): nodes are fail-silent — they either
    work as specified or stop — and processes on functioning nodes can
    communicate.

    A node carries:
    - an {e incarnation} counter, bumped on every recovery;
    - an {!Sim.Engine.group} per incarnation: fibers spawned on behalf of
      the node die silently when it crashes;
    - registered {e services} (installed by the RPC layer), which survive
      crashes — the code of a service is on stable storage, per §3.1 —
      while any volatile state they captured is reset through [on_crash]
      callbacks;
    - [on_crash] / [on_recover] hooks used by upper layers (volatile cache
      invalidation, recovery protocols such as the paper's
      update-then-[Include] sequence). *)

type t
(** A simulated network. *)

type node_id = string
(** Nodes are named by short strings ("alpha", "store1", ...), which keeps
    traces readable. *)

exception Unknown_node of node_id
(** Raised when an operation names a node that was never added. *)

val create :
  ?latency:(Sim.Rng.t -> float) ->
  ?detect_delay:float ->
  Sim.Engine.t ->
  t
(** [create eng] is an empty network driven by [eng].
    [latency] samples per-message transit time (default: uniform in
    [\[0.5, 1.5\]]). [detect_delay] is the failure-detector notification
    delay applied when a crash aborts in-flight RPCs (default [1.0]). *)

val engine : t -> Sim.Engine.t
(** The engine driving this network. *)

val trace : t -> Sim.Trace.t
(** The network's trace sink (shared with upper layers by convention). *)

val metrics : t -> Sim.Metrics.t
(** The network's metrics registry (shared with upper layers). *)

val health : t -> Health.t
(** The network's latency-health tracker. The RPC layer feeds every call
    completion into it; retry breakers, hedged scatters and replica
    ranking read it. Always on — its bookkeeping is pure arithmetic, so
    fault-free worlds are unperturbed. *)

(** The gray-failure profile (docs/PROTOCOLS.md §15–§16): one setting,
    read by every layer that reacts to slow-but-alive nodes.
    - [Off] (the default): none of the gray-failure machinery runs, and
      the off path is byte-identical to a world built without it.
    - [Hedged]: idempotent scatter-gathers race a health-delayed backup
      copy and rank replicas by latency health; servers refuse phase-1
      calls whose initiator's deadline already passed
      ([retry.shed_expired]); the retry breaker also trips on sustained
      slowness ([retry.degraded_trips]).
    - [Autonomic]: [Hedged], plus sibling routing — a commit-path leg
      whose primary store is sustainedly slow sends its backup copy to
      the healthiest other [St] member, and activation reads walk [St]
      healthiest-first. {!Naming.Service.create} additionally starts the
      {!Replica.Autonomic} membership controllers for this profile; the
      network setting alone starts nothing. *)
type gray_failure = Off | Hedged | Autonomic

val gray_failure : t -> gray_failure

val set_gray_failure : t -> gray_failure -> unit

val hedging : t -> bool
(** [gray_failure t <> Off]. *)

val add_node : t -> node_id -> unit
(** [add_node t id] registers a fresh, up node. Raises [Invalid_argument]
    if [id] already exists. *)

val node_ids : t -> node_id list
(** All registered node ids, sorted. *)

val is_up : t -> node_id -> bool
(** Whether the node is currently functioning. *)

val incarnation : t -> node_id -> int
(** The node's incarnation number (0 initially, +1 per recovery). *)

val group : t -> node_id -> Sim.Engine.group
(** The fiber group of the node's current incarnation. Fibers representing
    computation {e on} the node must be spawned into this group. *)

val spawn_on : t -> node_id -> ?name:string -> (unit -> unit) -> unit
(** [spawn_on t id f] runs fiber [f] on node [id] (in its current group).
    Silently does nothing if the node is down. *)

val crash : t -> node_id -> unit
(** [crash t id] stops the node: its fibers die at their suspension points,
    its volatile state is reset via [on_crash] hooks, in-flight RPCs
    against it fail after the detection delay, and messages in transit to
    it are dropped. Idempotent. *)

val recover : t -> node_id -> unit
(** [recover t id] restarts a crashed node with a fresh incarnation and
    runs its [on_recover] hooks (oldest registration first). Idempotent on
    an up node. *)

val on_crash : t -> node_id -> (unit -> unit) -> unit
(** Register a callback run (synchronously) when the node crashes. *)

val on_recover : t -> node_id -> (unit -> unit) -> unit
(** Register a callback run when the node recovers. The callback runs in a
    fresh fiber of the new incarnation. *)

val set_partitioned : t -> node_id -> node_id -> bool -> unit
(** [set_partitioned t a b flag] blocks (or unblocks) message delivery in
    both directions between [a] and [b]. *)

val partitioned : t -> node_id -> node_id -> bool
(** Whether the pair is currently partitioned. *)

val reachable : t -> node_id -> node_id -> bool
(** [reachable t src dst]: [dst] is up, not partitioned from [src], and the
    directed link [src]->[dst] is not one-way cut. *)

(** {2 Message-level fault plane}

    Directed per-link fault rules: drop, duplicate, reorder (delivery held
    past later sends), latency spikes, and one-way cuts. Links with no rule
    installed take the exact pre-fault code path with no extra RNG draws,
    so fault-free worlds are byte-identical. Fault decisions draw from a
    stream derived from (but independent of) the latency stream, making
    every injected fault reproducible from the engine seed. Injections are
    recorded in the trace under tag ["fault"] and counted as
    [fault.drop] / [fault.dup] / [fault.reorder] / [fault.delay] /
    [fault.cut_dropped] metrics.

    {!send_fifo} channels (the sequencer multicast) are reliable-ordered by
    contract: only delay spikes and cuts apply to them. *)

val set_link_fault :
  t ->
  ?drop:float ->
  ?dup:float ->
  ?reorder:float ->
  ?spike_prob:float ->
  ?spike:float ->
  src:node_id ->
  dst:node_id ->
  unit ->
  unit
(** Install (or overwrite) the message-fault rule for the directed link
    [src]->[dst]. [drop], [dup], [reorder] and [spike_prob] are per-message
    probabilities; [spike] is the extra latency added when a spike fires.
    Omitted fields default to 0 (off); a rule with all fields off is
    removed. A one-way cut set via {!set_oneway_cut} is preserved. *)

val clear_link_fault : t -> src:node_id -> dst:node_id -> unit
(** Remove drop/dup/reorder/spike injection from the directed link,
    preserving any one-way cut. *)

val set_oneway_cut : t -> src:node_id -> dst:node_id -> bool -> unit
(** [set_oneway_cut t ~src ~dst true] blocks delivery in the [src]->[dst]
    direction only — the asymmetric partition of the chaos harness.
    Messages in flight when the cut lands are dropped at delivery time,
    like symmetric partitions. *)

val oneway_cut : t -> src:node_id -> dst:node_id -> bool
(** Whether the directed link is currently cut. *)

val set_brownout : t -> ?prob:float -> lo:float -> hi:float -> node_id -> unit
(** [set_brownout t ~lo ~hi node] installs per-node service-time inflation
    (a {e brownout}): each message delivered to — or sent by — [node] is,
    with probability [prob] (default [0.2]), delayed by an extra uniform
    draw from [\[lo, hi\]]. Distinct from a link spike: it follows the
    node across all of its links, modelling a gray failure (overloaded
    scheduler, thrashing disk) rather than a sick wire. Inflation draws
    come from the fault stream, and only when a brownout is installed, so
    healthy worlds are byte-identical. Counted as [fault.brownout]. *)

val clear_brownout : t -> node_id -> unit
(** Remove a node's brownout, if any. *)

val browned_out : t -> node_id -> bool
(** Whether the node currently has a brownout installed. *)

val clear_all_faults : t -> unit
(** Remove every link fault rule, one-way cut and brownout (the heal step
    of a chaos schedule). Symmetric partitions are not affected. *)

val faults_active : t -> bool
(** Whether any link fault rule (including one-way cuts) is installed. *)

val faults_ever : t -> bool
(** Whether any fault rule was ever installed in this network's lifetime.
    The RPC layer uses this to switch on duplicate suppression without
    taxing fault-free worlds. *)

val derive_rng : t -> string -> Sim.Rng.t
(** [derive_rng t label] is an independent RNG stream deterministically
    derived from the network's seed and [label], without advancing any
    existing stream. Derive at construction time: the derivation reads the
    latency stream's current state. *)

val sample_latency : t -> float
(** Draw one latency sample from the network's model. *)

val send : t -> src:node_id -> dst:node_id -> (unit -> unit) -> unit
(** [send t ~src ~dst f] delivers [f] to [dst] after one latency sample:
    at delivery time, if [dst] is up and the pair is not partitioned, [f]
    runs as a fresh fiber in [dst]'s group; otherwise the message is
    silently dropped (fail-silent network discards mail for dead nodes). *)

val send_inline : t -> src:node_id -> dst:node_id -> (unit -> unit) -> unit
(** Like {!send}, with the same latency draw, fault plane and up /
    partition / cut checks at delivery, but [f] runs inside the delivery
    event itself instead of in a fresh fiber. [f] must not suspend: it is
    for completions whose whole work is to withdraw a crash watch and
    fill an ivar or resume a suspended fiber (an RPC reply). Such a
    resumption is still queued as a fresh zero-delay event: the resumed
    fiber never runs inside [f]. An exception escaping [f] is re-raised
    by {!Sim.Engine.run}, as one escaping a fiber is. *)

val send_fifo : t -> src:node_id -> dst:node_id -> (unit -> unit) -> unit
(** Like {!send} but deliveries from [src] to [dst] preserve send order
    (per-pair FIFO), as required by the sequencer-based ordered multicast. *)

(* Failure-detector support for the RPC layer. *)

type watch
(** Handle for a registered crash watch. *)

val watch_crash : t -> node_id -> (unit -> unit) -> watch
(** [watch_crash t id f] arranges for [f] to run [detect_delay] after [id]
    crashes, unless {!unwatch}ed first. Used by RPC calls to fail fast when
    the callee dies mid-call, modelling the perfect failure detector the
    paper assumes. If [id] is already down, [f] is scheduled at once (due
    [detect_delay] from now) and the returned watch is inert.

    Cost: one cell on an intrusive ring per node, O(1) and independent
    of how many watches the node holds. When [id] crashes, every watch it
    holds is scheduled newest-first (the most recent registration fires
    first among same-instant notifications) and the ring is emptied. *)

val unwatch : watch -> unit
(** Cancel a crash watch: O(1), allocates nothing. Withdrawing a watch
    that already fired, or was already withdrawn, is a no-op. *)

val watch_count : t -> node_id -> int
(** The number of crash watches [id] currently holds (a walk of its
    ring). Tests use it to check that finished protocols withdrew their
    watches. *)
