(* e2e benchmark entry point.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Prints one line per metric (name, value, unit, sample count), then, as
   the last line, one JSON object with the keys [correct], [attempted],
   [failed] and [metrics]. A failed outcome check exits with code 1. *)

open E2e_bench

let usage =
  "main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.World.name) World.workloads)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result (r : Run.result) =
  List.iter
    (fun (m : Run.metric) ->
      Printf.printf "%-40s %16s %-12s %s\n" m.name (json_number m.value) m.unit
        m.note)
    r.metrics;
  List.iter (Printf.printf "VIOLATION %s\n") r.violations;
  let metrics =
    List.map
      (fun (m : Run.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30.0
  and trace = ref 0 in
  let list () =
    List.iter (fun w -> print_endline w.World.name) World.workloads;
    exit 0
  in
  Arg.parse
    [
      ("--list", Arg.Unit list, "print the workload names");
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured wall time per run");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match World.find !workload with
  | None ->
      prerr_endline usage;
      exit 2
  | Some wl ->
      Printf.printf "workload %s seed %d seconds %g trace %d\n%!" wl.name !seed
        !seconds !trace;
      let r =
        if !trace = 1 then Run.traced wl ~seed:!seed ~seconds:!seconds
        else Run.untraced wl ~seed:!seed ~seconds:!seconds
      in
      print_result r;
      if not r.correct then exit 1
