type t = {
  net : Net.Network.t;
  node : Net.Network.node_id;
  abort : scope:string -> action:string -> unit;
  watches : (string * string, Net.Network.watch) Hashtbl.t;
}

let create net ~node ~abort = { net; node; abort; watches = Hashtbl.create 32 }

let origin_of_action action =
  match String.index_opt action ':' with
  | Some i -> String.sub action 0 i
  | None -> action

let touch t ~scope ~action =
  let key = (scope, action) in
  if not (Hashtbl.mem t.watches key) then begin
    let origin = origin_of_action action in
    if not (String.equal origin t.node) then begin
      let w =
        Net.Network.watch_crash t.net origin (fun () ->
            if Hashtbl.mem t.watches key then begin
              Hashtbl.remove t.watches key;
              Net.Network.spawn_on t.net t.node
                ~name:(Printf.sprintf "orphan-abort:%s" action) (fun () ->
                  t.abort ~scope ~action)
            end)
      in
      Hashtbl.add t.watches key w
    end
  end

let settle t ~scope ~action =
  match Hashtbl.find_opt t.watches (scope, action) with
  | None -> ()
  | Some w ->
      Hashtbl.remove t.watches (scope, action);
      Net.Network.unwatch w

let transfer t ~scope ~action ~parent =
  settle t ~scope ~action;
  touch t ~scope ~action:parent
