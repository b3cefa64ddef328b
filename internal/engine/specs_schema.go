package engine

// Hand-written wire schemas for the built-in sweep specs, registered
// alongside their decoders in registry.go's init. Each schema describes
// exactly the JSON shape its DecodeJSON decoder accepts — object fields and
// types, unknown-field rejection — and nothing more: semantic constraints
// ("runs must be positive") belong to the spec's Validate, so the schema
// never 422s a document the decoder would take. schema_test.go enforces the
// agreement case by case.

// Shared $defs are package-level singletons: every kind that references
// "#/$defs/gen" (and friends) points its Defs map at the SAME *Schema
// instance, so the catalog serves one canonical definition of each shared
// sub-document instead of per-kind copies that could silently drift apart.
// The per-kind "task" documents stay kind-local — they genuinely differ.
var (
	genDef     = genSpecSchema()
	gameDef    = gameSchema()
	summaryDef = summarySchema()
)

// sharedDefs builds a Defs map wiring the named shared singletons in.
// Callers may add kind-local entries (like "task") to the returned map.
func sharedDefs(names ...string) map[string]*Schema {
	out := make(map[string]*Schema, len(names)+1)
	for _, n := range names {
		switch n {
		case "gen":
			out[n] = genDef
		case "game":
			out[n] = gameDef
		case "summary":
			out[n] = summaryDef
		default:
			panic("specs_schema: unknown shared $def " + n)
		}
	}
	return out
}

// genSpecSchema describes core.GenSpec (no json tags: Go field names).
func genSpecSchema() *Schema {
	return SchemaObject(map[string]*Schema{
		"Miners":    SchemaInt("number of miners to generate"),
		"Coins":     SchemaInt("number of coins to generate"),
		"PowerZipf": SchemaNumber("Zipf exponent for mining powers; 0 draws uniformly"),
		"PowerLo":   SchemaNumber("power range low end (default 1)"),
		"PowerHi":   SchemaNumber("power range high end (default 100)"),
		"RewardLo":  SchemaNumber("reward range low end (default 1)"),
		"RewardHi":  SchemaNumber("reward range high end (default 100)"),
	})
}

// gameSchema describes core.Game's wire form. The game document is decoded
// by core.Game's own UnmarshalJSON (plain json.Unmarshal inside, which
// tolerates unknown keys — DisallowUnknownFields does not reach through a
// custom unmarshaler), so the object is open; the inner miner/coin entries
// are open for the same reason.
func gameSchema() *Schema {
	return SchemaOpenObject(map[string]*Schema{
		"miners": SchemaArray(SchemaOpenObject(map[string]*Schema{
			"name":  SchemaString("miner name"),
			"power": SchemaNumber("mining power"),
		})),
		"coins": SchemaArray(SchemaOpenObject(map[string]*Schema{
			"name": SchemaString("coin name"),
		})),
		"rewards":  SchemaArray(SchemaNumber("per-coin reward")),
		"epsilon":  SchemaNumber("better-response improvement threshold"),
		"eligible": SchemaArray(SchemaArray(SchemaBool("miner may mine coin"))),
	})
}

// scenarioParamsSchema describes replay.ScenarioParams (no json tags).
func scenarioParamsSchema() *Schema {
	return SchemaObject(map[string]*Schema{
		"Miners":       SchemaInt("fleet size (default 200)"),
		"ZipfExponent": SchemaNumber("hashrate concentration (default 1.1)"),
		"Epochs":       SchemaInt("simulation length in hours (default 2880)"),
		"SpikeHour":    SchemaInt("hour the BCH rate spike begins (default 1200)"),
		"SpikeFactor":  SchemaNumber("peak BCH rate relative to baseline (default 3.2)"),
		"Activity":     SchemaNumber("per-epoch re-evaluation probability (default 0.15)"),
		"Hysteresis":   SchemaNumber("relative gain required to switch (default 0.02)"),
		"Seed":         SchemaInt("must be 0 in sweeps: per-run seeds derive from the job seed"),
	})
}

func learnSweepSchema() *Schema {
	s := SchemaObject(map[string]*Schema{
		"game":       SchemaRef("game"),
		"game_id":    SchemaString("reference to a game registered via POST /v2/games"),
		"gen":        SchemaRef("gen"),
		"schedulers": SchemaArray(SchemaString("scheduler name")),
		"runs":       SchemaInt("learning runs per scheduler"),
		"max_steps":  SchemaInt("per-run step cap (0 = learning default)"),
	})
	s.Title = "learn_sweep"
	s.Description = "Better-response learning sweep: Runs runs per scheduler on a fixed or generated game, aggregating steps-to-equilibrium statistics."
	s.Defs = sharedDefs("gen", "game")
	return s
}

func designSweepSchema() *Schema {
	s := SchemaObject(map[string]*Schema{
		"gen":       SchemaRef("gen"),
		"pairs":     SchemaInt("number of design runs"),
		"max_tries": SchemaInt("game-search bound per task (default 500)"),
	})
	s.Title = "design_sweep"
	s.Description = "Section-5 reward-design sweep: Algorithm 2 between random equilibrium pairs on random games."
	s.Defs = sharedDefs("gen")
	return s
}

func replaySweepSchema() *Schema {
	s := SchemaObject(map[string]*Schema{
		"params": scenarioParamsSchema(),
		"runs":   SchemaInt("number of scenario replays"),
	})
	s.Title = "replay_sweep"
	s.Description = "Market-simulator replay sweep: the Figure-1 BTC/BCH scenario across derived seeds, aggregating migration outcomes."
	return s
}

func equilibriumSweepSchema() *Schema {
	s := SchemaObject(map[string]*Schema{
		"gen":   SchemaRef("gen"),
		"games": SchemaInt("number of random games to enumerate"),
	})
	s.Title = "equilibrium_sweep"
	s.Description = "Equilibrium census: enumerate pure equilibria of random games, aggregating the count distribution."
	s.Defs = sharedDefs("gen")
	return s
}

// Result schemas, carried by RegisterResultCodec and served from the catalog
// as CatalogEntry.ResultSchema. Each describes the AGGREGATE result document
// GET /result serves; its $defs carry two shared sub-documents by
// convention: "task" is the per-task document the result data plane streams
// (range GET bodies, StreamResult items, store range records), and "summary"
// is the stats.Summary block the sweeps aggregate into. Aggregate objects
// are closed — json.Marshal of a known struct emits exactly these fields —
// while task documents are open, because decodeTaskAs uses plain Unmarshal
// (tolerant of unknown keys) and a schema must never be stricter than its
// decoder.

// summarySchema describes stats.Summary (no json tags: Go field names).
func summarySchema() *Schema {
	return SchemaObject(map[string]*Schema{
		"N":      SchemaInt("sample count"),
		"Mean":   SchemaNumber("mean"),
		"Std":    SchemaNumber("sample standard deviation (n-1 denominator)"),
		"Min":    SchemaNumber("minimum"),
		"Max":    SchemaNumber("maximum"),
		"Median": SchemaNumber("median"),
		"P25":    SchemaNumber("25th percentile"),
		"P75":    SchemaNumber("75th percentile"),
		"P95":    SchemaNumber("95th percentile"),
		"P99":    SchemaNumber("99th percentile"),
	})
}

func learnSweepResultSchema() *Schema {
	s := SchemaObject(map[string]*Schema{
		"schedulers": SchemaArray(SchemaObject(map[string]*Schema{
			"scheduler": SchemaString("scheduler name"),
			"runs":      SchemaInt("learning runs for this scheduler"),
			"converged": SchemaInt("runs that reached a verified equilibrium"),
			"steps":     SchemaRef("summary"),
		})),
		"total_runs": SchemaInt("total learning runs across schedulers"),
	})
	s.Title = "learn_sweep result"
	s.Defs = sharedDefs("summary")
	s.Defs["task"] = SchemaOpenObject(map[string]*Schema{
		"steps":     SchemaInt("better-response steps taken"),
		"converged": SchemaBool("run reached a verified equilibrium"),
	})
	return s
}

func designSweepResultSchema() *Schema {
	s := SchemaObject(map[string]*Schema{
		"pairs":      SchemaInt("design runs attempted"),
		"reached":    SchemaInt("runs whose final config equals the target equilibrium"),
		"skipped":    SchemaInt("tasks that found no usable game"),
		"cost":       SchemaRef("summary"),
		"steps":      SchemaRef("summary"),
		"errors":     SchemaInt("game draws discarded due to errors"),
		"last_error": SchemaString("sample of one discarded draw's error"),
	})
	s.Title = "design_sweep result"
	s.Defs = sharedDefs("summary")
	s.Defs["task"] = SchemaOpenObject(map[string]*Schema{
		"skipped":  SchemaBool("no usable game within max_tries"),
		"reached":  SchemaBool("target equilibrium reached"),
		"cost":     SchemaNumber("total subsidy spent"),
		"steps":    SchemaNumber("total better-response steps"),
		"errs":     SchemaInt("discarded draws"),
		"last_err": SchemaString("sample error from a discarded draw"),
	})
	return s
}

func replaySweepResultSchema() *Schema {
	s := SchemaObject(map[string]*Schema{
		"runs":            SchemaInt("scenario replays"),
		"pre_spike_share": SchemaRef("summary"),
		"peak_share":      SchemaRef("summary"),
		"final_share":     SchemaRef("summary"),
		"migrated":        SchemaInt("runs whose peak share exceeded twice the pre-spike share"),
	})
	s.Title = "replay_sweep result"
	s.Defs = sharedDefs("summary")
	// replay.Outcome has no json tags: Go field names on the wire.
	s.Defs["task"] = SchemaOpenObject(map[string]*Schema{
		"PreSpikeBCHShare": SchemaNumber("mean BCH hashrate share before the spike"),
		"PeakBCHShare":     SchemaNumber("max share during/after the spike"),
		"FinalBCHShare":    SchemaNumber("share at the end of the run"),
	})
	return s
}

func equilibriumSweepResultSchema() *Schema {
	s := SchemaObject(map[string]*Schema{
		"games":               SchemaInt("random games enumerated"),
		"multiple":            SchemaInt("games with at least two pure equilibria"),
		"equilibria_per_game": SchemaRef("summary"),
	})
	s.Title = "equilibrium_sweep result"
	s.Defs = sharedDefs("summary")
	s.Defs["task"] = SchemaInt("pure equilibria found in this task's game")
	return s
}
