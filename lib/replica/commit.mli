(** Commit processing and object passivation (§2.3(3)).

    When a client action that used a replicated object commits, the new
    state must reach the object stores of every node in [StA], and the
    naming service's view must stay accurate: stores the copy could not
    reach are {e excluded} so later clients never bind to stale states.

    [attach] installs this as a before-commit hook of the action:

    + {e read optimisation}: if no action of the lineage (the top-level
      action and its nested descendants) attempted a write invocation on
      the object ({!Group.wrote}), settle at once — no commit view, no
      copy, and no group-commit batch held open. The action's read
      locks are checked at phase 1 instead: it aborts unless some
      replica still votes that it holds them
      ({!Action.Atomic.require_held});
    + fetch the commit view from a functioning replica (abort if none);
      on the optimistic path the [St] snapshot is read in the same round.
      A clean view (the attempted write was refused) skips the copy;
    + prepare the new state on every node of the group's [StA] view —
      when the server runtime has delta shipping enabled
      ({!Server.set_delta_shipping}), each store is shipped the op-log
      suffix [(v_store, v_commit]] instead of the full state whenever the
      acknowledged-version vector knows [v_store] and the commit view's
      chain covers the gap ({!Oplog}); a [Vote_delta_miss] reseeds the
      vector from the store's reported counter and retries that store
      with full state in a second prepare round;
    + if {e every} store is unreachable, abort;
    + if {e some} failed, invoke the [exclude] callback (provided by the
      naming layer; it performs the paper's lock promotion and [Exclude]
      within the same action — its failure aborts too);
    + register the successful stores as phase-2 participants. *)

val attach :
  Group.runtime ->
  Action.Atomic.t ->
  Group.t ->
  ?current_stores:
    (Action.Atomic.t -> (Net.Network.node_id list, string) result) ->
  ?note_version:
    (Action.Atomic.t -> Store.Version.t -> (unit, string) result) ->
  ?snapshot_stores:
    (unit -> (Net.Network.node_id list * int, string) result) ->
  ?validate:
    (Action.Atomic.t ->
    version:Store.Version.t ->
    rev:int ->
    [ `Validated | `Conflict | `Failed of string ]) ->
  exclude:
    (Action.Atomic.t -> Net.Network.node_id list -> (unit, string) result) ->
  unit ->
  unit
(** [attach rt act group ~exclude ()] arranges commit-time state copy-back
    for [group] under [act]. Call once per (action, bound group).

    [note_version] records the version this commit installs in the naming
    service's committed-version fence (see {!Naming.Gvd.note_version});
    its failure aborts the commit. The default records nothing.

    [current_stores] re-reads [StA] {e at commit time}, under a lock owned
    by [act] (the naming layer passes a [GetView]); the default uses the
    bind-time view. The fresh read is what keeps the copy-back correct
    under the independent/nested-top-level schemes: their bind-time view
    is read in a separate action, so a recovered store's [Include] can
    commit between bind and commit — the copy must target the {e current}
    membership or the re-included store is left stale while listed in
    [StA] (the enhancement §4.2.1(ii) alludes to).

    [snapshot_stores] and [validate] (both must be given) switch the
    commit to the {e optimistic} path: [St] and its membership revision
    come from a lock-free snapshot read ({!Naming.Gvd.get_view_commit})
    issued concurrently with the commit view, and [validate] re-checks the
    revision inside the prepare round ({!Naming.Gvd.validate_view}),
    taking over [note_version]'s job on success. [`Conflict] — an
    Include/Exclude committed between snapshot and validation — withdraws
    the prepares and retries the whole fan-out against fresh [St]
    (bounded attempts; the validation keeps the naming-tier write fence
    across the retry, so the second validation cannot race the same way);
    exhausted retries fall back to the classic locked path above, so
    churn-heavy workloads cannot starve a commit. Metrics:
    [commit.validate_ok] / [commit.validate_conflict] /
    [commit.validate_fallbacks]. *)
