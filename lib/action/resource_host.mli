(** Node-local recoverable resources enlisted in remote atomic actions.

    A {e resource manager} owns some node-local state manipulated by RPC
    handlers on behalf of remote actions — the group view database entries,
    an activated object on a server. The handlers take locks and stage
    updates keyed by action id; this module transports the action-end
    protocol to them:

    - [prepare]: vote on commit (phase 1): yes, no, or state lost;
    - [commit]: make staged updates permanent and release the action's
      locks (phase 2);
    - [abort]: undo staged updates and release locks;
    - [transfer]: fold a {e nested} action's locks and staged updates into
      its parent (Arjuna nested-commit semantics — nothing becomes durable
      yet).

    The client-side {!Atomic} module calls these automatically for every
    resource an action {e enlists}. *)

(** A phase-1 vote. [Lost] says the resource no longer holds the
    action's locks or staged updates — the state it held died with a
    crash or a passivation, or never arrived — so it can neither commit
    nor veto the action: the coordinator tolerates it, unless the action
    relies on that resource's locks ({!Atomic.require_held}) and no other
    copy votes yes. *)
type vote = Yes | No | Lost

type manager = {
  m_prepare : action:string -> vote;
  m_commit : action:string -> unit;
  m_abort : action:string -> unit;
  m_transfer : action:string -> parent:string -> unit;
}

type t
(** The resource-hosting runtime for one simulated world. *)

val create : Net.Rpc.t -> t

val register : t -> node:Net.Network.node_id -> resource:string -> manager -> unit
(** Install a manager under [resource] on [node], replacing any previous
    registration. *)

val registered : t -> node:Net.Network.node_id -> resource:string -> bool

(* Remote action-end operations; called from a fiber on [from]. *)

val prepare :
  t -> from:Net.Network.node_id -> node:Net.Network.node_id -> resource:string ->
  action:string -> (vote, Net.Rpc.error) result

val commit :
  t -> from:Net.Network.node_id -> node:Net.Network.node_id -> resource:string ->
  action:string -> (unit, Net.Rpc.error) result

val abort :
  t -> from:Net.Network.node_id -> node:Net.Network.node_id -> resource:string ->
  action:string -> (unit, Net.Rpc.error) result

val transfer :
  t -> from:Net.Network.node_id -> node:Net.Network.node_id -> resource:string ->
  action:string -> parent:string -> (unit, Net.Rpc.error) result
