(* GC busy time from the runtime's own event ring ([runtime_events]).

   The runtime brackets each minor collection and each major slice with
   begin/end events; the reader sums their durations while it is
   [measuring]. The ring is bounded, so the traced run polls it often
   (between engine slices); [lost] counts events the ring dropped before
   they were read. *)

let busy_ns = ref 0L
let lost = ref 0
let measuring = ref false
let cursor = ref None
let open_at = Hashtbl.create 4

let top_level = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      if top_level phase then
        Hashtbl.replace open_at phase (Runtime_events.Timestamp.to_int64 ts))
    ~runtime_end:(fun _ ts phase ->
      if top_level phase then
        match Hashtbl.find_opt open_at phase with
        | Some t0 ->
            Hashtbl.remove open_at phase;
            if !measuring then
              busy_ns :=
                Int64.add !busy_ns
                  (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0)
        | None -> ())
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

let poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

(* Measure the GC time spent in [f]. *)
let measure f =
  poll ();
  measuring := true;
  Fun.protect f ~finally:(fun () ->
      poll ();
      measuring := false)

let busy_s () = Int64.to_float !busy_ns /. 1e9
