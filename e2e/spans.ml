(* Sim-time spans of the traced run and their Chrome trace-event export.

   Each [with_bound] call yields an [action] span with three children
   sharing its action id: [bind] (call entry to body entry), [invoke]
   (body entry to invoke return) and [commit] (body return to call
   return). An action that aborted before its body ran has no children;
   one that aborted in the body has no [commit]. One simulated time unit
   is written as one millisecond, so Perfetto's time axis reads in tu. *)

open World

let bind s = if Float.is_nan s.sp_body then None else Some (s.sp_body -. s.sp_start)

let invoke s =
  if Float.is_nan s.sp_invoked then None else Some (s.sp_invoked -. s.sp_body)

let commit s =
  if s.sp_ok && not (Float.is_nan s.sp_invoked) then
    Some (s.sp_end -. s.sp_invoked)
  else None

let durations f spans =
  Array.of_list (List.filter_map f (Array.to_list spans))

let event buf ~name ~tid ~id ~ok ~start ~stop =
  Printf.bprintf buf
    "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"action\":%d,\"ok\":%b}}"
    name tid (start *. 1000.0) ((stop -. start) *. 1000.0) id ok

(* Write at most [limit] actions' spans to [path]. *)
let export ~limit spans path =
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let add ~name ~start ~stop s =
    if not !first then Buffer.add_char buf ',';
    first := false;
    event buf ~name ~tid:s.sp_client ~id:s.sp_action ~ok:s.sp_ok ~start ~stop
  in
  Array.iteri
    (fun k s ->
      if k < limit then begin
        add ~name:"action" ~start:s.sp_start ~stop:s.sp_end s;
        if not (Float.is_nan s.sp_body) then
          add ~name:"bind" ~start:s.sp_start ~stop:s.sp_body s;
        if not (Float.is_nan s.sp_invoked) then begin
          add ~name:"invoke" ~start:s.sp_body ~stop:s.sp_invoked s;
          if s.sp_ok then add ~name:"commit" ~start:s.sp_invoked ~stop:s.sp_end s
        end
      end)
    spans;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  let oc = open_out path in
  Fun.protect
    (fun () -> Buffer.output_buffer oc buf)
    ~finally:(fun () -> close_out oc)
