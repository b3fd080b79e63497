(* The benchmark's OCaml half; perfbench/run.py drives it.

     xbench.exe gen    --workload W --seed N --scale full|toy --dir D
     xbench.exe load   --workload W --seed N --scale S --dir D --port P
                       --clients C --seconds T --warmup T --out FILE
     xbench.exe probe  (the same options) --part P --parts N
     xbench.exe replay --workload W --seed N --scale S --dir D
                       --clients C --warm W --events E --out FILE

   [gen] writes the workload's documents to D/docs and prints the input
   sizes and this build's OCaml version as JSON.  [load] is the load
   generator and [probe] its write probe (see Load); [replay] the traced
   in-process replay (see Replay). *)

let usage () =
  prerr_endline "usage: xbench.exe (gen|load|probe|replay) --key value ...";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let cmd, opts =
    match args with _ :: cmd :: rest -> (cmd, rest) | _ -> usage ()
  in
  let rec pairs = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        (String.sub k 2 (String.length k - 2), v) :: pairs rest
    | [] -> []
    | _ -> usage ()
  in
  let opts = pairs opts in
  let get k =
    match List.assoc_opt k opts with
    | Some v -> v
    | None ->
        Printf.eprintf "xbench: missing --%s\n" k;
        exit 2
  in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let float k = match float_of_string_opt (get k) with Some f -> f | None -> usage () in
  let workload =
    match Gen.workload_of_string (get "workload") with
    | Some w -> w
    | None ->
        prerr_endline "xbench: --workload must be doc-query, corpus-query or corpus-churn";
        exit 2
  in
  let scale = match get "scale" with "toy" -> Gen.Toy | "full" -> Gen.Full | _ -> usage () in
  let seed = int "seed" in
  let dir = get "dir" in
  let docs_dir = Filename.concat dir "docs" in
  match cmd with
  | "gen" ->
      let docs = Gen.initial_docs ~workload ~scale ~seed in
      let pool = Gen.query_pool ~workload ~scale in
      if not (Sys.file_exists docs_dir) then Sys.mkdir docs_dir 0o755;
      List.iter
        (fun (name, (d : Gen.doc)) ->
          Out_channel.with_open_bin (Filename.concat docs_dir name) (fun oc ->
              output_string oc d.Gen.xml))
        docs;
      let module Json = Xfrag_obs.Json in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("ocaml", Json.String Sys.ocaml_version);
                ( "sizes",
                  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Gen.sizes docs pool)) );
              ]))
  | ("load" | "probe") as cmd ->
      Load.run
        ~phase:(if cmd = "load" then `Window else `Probe (int "part", int "parts"))
        ~workload ~scale ~seed ~port:(int "port") ~clients:(int "clients")
        ~seconds:(float "seconds") ~warmup:(float "warmup") ~docs_dir ~out:(get "out")
  | "replay" ->
      Replay.run ~workload ~scale ~seed ~clients:(int "clients") ~warm:(int "warm") ~events:(int "events")
        ~docs_dir ~work_dir:dir ~out:(get "out")
  | _ -> usage ()
