#include "coordinator.hh"

#include <algorithm>
#include <chrono>

#include "errors.hh"
#include "fault.hh"
#include "observer.hh"
#include "support/logging.hh"

namespace primepar {

namespace {

std::int64_t
steadyMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<std::uint8_t>
jsonBytes(const JsonValue &v)
{
    const std::string s = v.toString();
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

JsonValue
parsePayload(const WireFrame &f)
{
    if (f.payload.empty())
        return JsonValue::object();
    return parseJson(
        std::string(f.payload.begin(), f.payload.end()));
}

WireFrame
ctrlFrame(FrameType type, const char *verb, std::int64_t sender,
          std::uint64_t generation, const JsonValue &body)
{
    WireFrame f;
    f.type = type;
    f.tensor = verb;
    f.sender = sender;
    f.generation = generation;
    f.payload = jsonBytes(body);
    f.checksum = checksumBytes(f.payload.data(), f.payload.size());
    return f;
}

} // namespace

// ---------------------------------------------------------------------------
// Coordinator

struct Coordinator::WorkerState
{
    std::int64_t id = 0;
    NetSocket conn;
    std::string host = "127.0.0.1";
    int dataPort = 0;
    std::int64_t lastSeenMs = 0;
    bool alive = true;
    bool done = false;
    /** Reader blocked in a suspect decision: the liveness monitor must
     *  not hold missing heartbeats against this worker's *own* reader
     *  being busy (heartbeats still arrive, its thread just isn't
     *  consuming them until the RPC completes). */
    bool inRpc = false;
    /** Registered into a degraded generation, welcome deferred until
     *  the re-join flip; excluded from liveness, placement and
     *  finished() until then. */
    bool rejoining = false;
    /** Parked in a "resync" RPC at the re-join barrier. */
    bool resyncing = false;
    double finalLoss = 0.0;
    std::thread reader;
};

Coordinator::Coordinator(CoordinatorOptions opts_in)
    : opts(std::move(opts_in)),
      health_(std::make_unique<RuntimeHealth>()), bits_(opts.numBits),
      origBits_(opts.numBits)
{
    PRIMEPAR_ASSERT(opts.numWorkers >= 1, "coordinator needs workers");
    PRIMEPAR_ASSERT((1 << bits_) >= opts.numWorkers,
                    "more workers (", opts.numWorkers,
                    ") than devices (", 1 << bits_, ")");
}

Coordinator::~Coordinator()
{
    stopping = true;
    for (auto &w : workers)
        if (w && w->reader.joinable())
            w->reader.join();
}

void
Coordinator::start()
{
    listener.open(opts.port);
}

int
Coordinator::port() const
{
    return listener.port();
}

JsonValue
Coordinator::currentWorldJson()
{
    // mu held by caller.
    DistWorld w;
    w.generation = generation_;
    w.numBits = bits_;
    w.workers = placed;
    return w.toJson();
}

int
Coordinator::run()
{
    PRIMEPAR_ASSERT(listener.valid(), "start() before run()");

    // Registration barrier: every worker dials in, sends a "register"
    // Ctrl frame with its data-plane listener port, and blocks until
    // all of them did — only then does anyone learn the world.
    const std::int64_t barrier_deadline =
        steadyMs() + std::max(10000, opts.dist.connectTimeoutMs * 10);
    while (static_cast<int>(workers.size()) < opts.numWorkers) {
        const int remain =
            static_cast<int>(barrier_deadline - steadyMs());
        if (remain <= 0) {
            PRIMEPAR_INFORM("coordinator: only ", workers.size(),
                            " of ", opts.numWorkers,
                            " workers registered in time");
            return 1;
        }
        NetSocket conn = listener.accept(std::min(remain, 250));
        if (!conn.valid())
            continue;
        WireFrame f;
        if (readFrame(conn, f, opts.dist.connectTimeoutMs) !=
                IoResult::Ok ||
            f.type != FrameType::Ctrl || f.tensor != "register") {
            continue; // stray connection; drop it
        }
        auto w = std::make_unique<WorkerState>();
        w->id = static_cast<std::int64_t>(workers.size());
        w->conn = std::move(conn);
        w->lastSeenMs = steadyMs();
        const JsonValue body = parsePayload(f);
        if (const JsonValue *p = body.find("port"))
            w->dataPort = static_cast<int>(p->asNumber());
        if (const JsonValue *h = body.find("host"))
            w->host = h->asString();
        workers.push_back(std::move(w));
    }

    {
        std::lock_guard<std::mutex> lock(mu);
        placed.clear();
        for (const auto &w : workers) {
            WorkerInfo info;
            info.worker = w->id;
            info.host = w->host;
            info.port = w->dataPort;
            placed.push_back(info);
        }
        DistWorld::placeDevices(placed, bits_);
    }

    // Welcome everyone; from here on, a connection is a liveness lease.
    for (auto &w : workers) {
        JsonValue welcome = JsonValue::object();
        welcome.set("worker", JsonValue(w->id));
        {
            std::lock_guard<std::mutex> lock(mu);
            welcome.set("world", currentWorldJson());
        }
        welcome.set("job", opts.job);
        if (writeFrame(w->conn,
                       ctrlFrame(FrameType::CtrlResp, "welcome", -1,
                                 generation_, welcome),
                       opts.dist.transferDeadlineMs) !=
            IoResult::Ok) {
            PRIMEPAR_INFORM("coordinator: worker ", w->id,
                            " vanished before welcome");
            markDead(w->id, "closed before welcome");
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            health_->workerUp(w->id, generation_);
        }
        PRIMEPAR_INFORM("coordinator: worker ", w->id, " up (",
                        w->host, ":", w->dataPort, ")");
    }

    for (auto &w : workers)
        w->reader = std::thread([this, &w_ref = *w] {
            readerLoop(w_ref);
        });

    // Liveness monitor: heartbeat staleness beyond the miss budget is
    // a death sentence, same as a closed connection but slower.
    const std::int64_t stale_ms =
        static_cast<std::int64_t>(opts.dist.heartbeatMs) *
        opts.dist.heartbeatMissLimit;
    int rc = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu);
            if (cv.wait_for(
                    lock,
                    std::chrono::milliseconds(opts.dist.heartbeatMs),
                    [this] { return finished(); }))
                break;
            const std::int64_t now = steadyMs();
            // A pending rejoiner sends no heartbeats: it waits in its
            // registration RPC until the survivors reach the barrier.
            std::vector<std::int64_t> stale;
            for (const auto &w : workers)
                if (w->alive && !w->done && !w->inRpc && !w->rejoining &&
                    now - w->lastSeenMs > stale_ms)
                    stale.push_back(w->id);
            lock.unlock();
            for (std::int64_t id : stale)
                markDead(id, "heartbeat timeout");
        }
        tryAcceptRejoin();
        std::lock_guard<std::mutex> lock(mu);
        if (finished())
            break;
        bool any_alive = false;
        for (const auto &w : workers)
            any_alive = any_alive || (w->alive && !w->rejoining);
        if (!any_alive) {
            PRIMEPAR_INFORM("coordinator: all workers lost; "
                            "job failed");
            rc = 1;
            break;
        }
    }

    stopping = true;
    cv.notify_all();
    for (auto &w : workers)
        if (w->reader.joinable())
            w->reader.join();
    return rc;
}

bool
Coordinator::finished()
{
    // mu held by caller.
    bool any_alive = false;
    for (const auto &w : workers) {
        if (!w->alive || w->rejoining)
            continue;
        any_alive = true;
        if (!w->done)
            return false;
    }
    return any_alive;
}

void
Coordinator::tryAcceptRejoin()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!opts.allowRejoin || health_->workersLost == 0 ||
            pendingRejoin_ >= 0)
            return;
    }
    NetSocket conn = listener.accept(10);
    if (!conn.valid())
        return;
    WireFrame f;
    if (readFrame(conn, f, opts.dist.connectTimeoutMs) !=
            IoResult::Ok ||
        f.type != FrameType::Ctrl || f.tensor != "register") {
        return; // stray connection; drop it
    }
    auto w = std::make_unique<WorkerState>();
    w->conn = std::move(conn);
    w->lastSeenMs = steadyMs();
    w->rejoining = true;
    const JsonValue body = parsePayload(f);
    if (const JsonValue *p = body.find("port"))
        w->dataPort = static_cast<int>(p->asNumber());
    if (const JsonValue *h = body.find("host"))
        w->host = h->asString();
    const JsonValue *steps_doc =
        opts.job.isObject() ? opts.job.find("steps") : nullptr;
    const std::int64_t steps =
        steps_doc ? static_cast<std::int64_t>(steps_doc->asNumber()) : -1;
    std::int64_t id = -1;
    std::int64_t barrier;
    {
        std::lock_guard<std::mutex> lock(mu);
        // Every survivor still reports some step s <= R-1 (the
        // highest step anyone *reported* trails the highest step
        // anyone *executes* by at most one), so each sees the pause
        // barrier in a step ack before executing step R.
        barrier = maxStep_ + 2;
        if (steps < 0 || barrier < steps) {
            id = static_cast<std::int64_t>(workers.size());
            w->id = id;
            pendingRejoin_ = id;
            resumeStep_ = barrier;
            workers.push_back(std::move(w));
        }
    }
    if (id < 0) {
        // No survivor executes step R, so it would never pause there:
        // answer now instead of leaving the rejoiner blocked until the
        // job ends.
        const std::string reason =
            "re-join barrier step " + std::to_string(barrier) +
            " is at or past the job's " + std::to_string(steps) +
            " steps";
        JsonValue refusal = JsonValue::object();
        refusal.set("refused", JsonValue(reason));
        writeFrame(w->conn,
                   ctrlFrame(FrameType::CtrlResp, "welcome", -1,
                             generation_, refusal),
                   opts.dist.transferDeadlineMs);
        PRIMEPAR_INFORM("coordinator: refused a late registration: ",
                        reason);
        return;
    }
    PRIMEPAR_INFORM("coordinator: worker ", id,
                    " registered for re-join; pausing survivors at "
                    "step ",
                    barrier);
    cv.notify_all();
}

void
Coordinator::readerLoop(WorkerState &w)
{
    while (!stopping) {
        WireFrame f;
        const IoResult r =
            readFrame(w.conn, f, opts.dist.heartbeatMs * 2);
        if (stopping)
            return;
        if (r == IoResult::Timeout)
            continue; // monitor thread judges staleness
        if (r == IoResult::Closed || r == IoResult::Malformed) {
            bool was_done;
            {
                std::lock_guard<std::mutex> lock(mu);
                was_done = w.done;
            }
            // A worker that said "done" closing its connection is a
            // clean exit, not a death.
            if (!was_done)
                markDead(w.id, r == IoResult::Closed
                                   ? "connection closed"
                                   : "malformed control frame");
            return;
        }

        {
            std::lock_guard<std::mutex> lock(mu);
            w.lastSeenMs = steadyMs();
        }
        if (f.type == FrameType::Heartbeat)
            continue;
        if (f.type != FrameType::Ctrl)
            continue;

        if (f.tensor == "step") {
            const JsonValue body = parsePayload(f);
            const std::int64_t step = static_cast<std::int64_t>(body.at("step").asNumber());
            const double loss = body.at("loss").asNumber();
            JsonValue ack = JsonValue::object();
            {
                std::lock_guard<std::mutex> lock(mu);
                maxStep_ = std::max(maxStep_, step);
                auto it = lossByStep.find(step);
                if (it == lossByStep.end() ||
                    f.generation > lossGen[step]) {
                    // First report, or a replay on the degraded grid
                    // (whose losses legitimately differ): (over)write.
                    lossByStep[step] = loss;
                    lossReporter[step] = w.id;
                    lossGen[step] = f.generation;
                } else if (f.generation == lossGen[step] &&
                           it->second != loss) {
                    // Workers must agree bit-for-bit within a
                    // generation. Keep the lowest-id reporter's value.
                    ++diverged;
                    PRIMEPAR_INFORM(
                        "coordinator: step ", step,
                        " loss divergence: worker ",
                        lossReporter[step], " says ", it->second,
                        ", worker ", w.id, " says ", loss);
                    if (w.id < lossReporter[step]) {
                        it->second = loss;
                        lossReporter[step] = w.id;
                    }
                }
                ack.set("pause_at",
                        JsonValue(pendingRejoin_ >= 0 ? resumeStep_
                                                      : -1));
            }
            if (writeFrame(w.conn,
                           ctrlFrame(FrameType::CtrlResp, "step", -1,
                                     generation_, ack),
                           opts.dist.transferDeadlineMs) !=
                IoResult::Ok) {
                markDead(w.id, "closed during step ack");
                return;
            }
        } else if (f.tensor == "resync") {
            const JsonValue world = handleResync(w);
            JsonValue resp = JsonValue::object();
            resp.set("world", world);
            if (writeFrame(w.conn,
                           ctrlFrame(FrameType::CtrlResp, "resync",
                                     -1, generation_, resp),
                           opts.dist.transferDeadlineMs) !=
                IoResult::Ok) {
                markDead(w.id, "closed during resync reply");
                return;
            }
        } else if (f.tensor == "suspect") {
            const JsonValue body = parsePayload(f);
            const std::int64_t suspected =
                static_cast<std::int64_t>(body.at("worker").asNumber());
            const JsonValue world = handleSuspect(w, suspected);
            JsonValue resp = JsonValue::object();
            resp.set("world", world);
            if (writeFrame(w.conn,
                           ctrlFrame(FrameType::CtrlResp, "suspect",
                                     -1, generation_, resp),
                           opts.dist.transferDeadlineMs) !=
                IoResult::Ok) {
                markDead(w.id, "closed during suspect reply");
                return;
            }
        } else if (f.tensor == "world") {
            JsonValue resp = JsonValue::object();
            {
                std::lock_guard<std::mutex> lock(mu);
                resp.set("world", currentWorldJson());
            }
            if (writeFrame(w.conn,
                           ctrlFrame(FrameType::CtrlResp, "world",
                                     -1, generation_, resp),
                           opts.dist.transferDeadlineMs) !=
                IoResult::Ok) {
                markDead(w.id, "closed during world reply");
                return;
            }
        } else if (f.tensor == "done") {
            const JsonValue body = parsePayload(f);
            {
                std::lock_guard<std::mutex> lock(mu);
                w.done = true;
                if (const JsonValue *l = body.find("loss"))
                    w.finalLoss = l->asNumber();
            }
            PRIMEPAR_INFORM("coordinator: worker ", w.id, " done");
            cv.notify_all();
        }
    }
}

void
Coordinator::markDead(std::int64_t worker, const std::string &reason)
{
    std::uint64_t gen_after = 0;
    {
        std::lock_guard<std::mutex> lock(mu);
        WorkerState *w = nullptr;
        for (auto &cand : workers)
            if (cand->id == worker)
                w = cand.get();
        if (!w || !w->alive)
            return;
        w->alive = false;
        if (w->rejoining) {
            // A pending rejoiner dying costs nothing: it never held
            // devices. Un-block the survivors' pause barrier.
            if (pendingRejoin_ == w->id) {
                pendingRejoin_ = -1;
                resumeStep_ = -1;
            }
            cv.notify_all();
            return;
        }
        ++generation_;
        bits_ = std::max(0, bits_ - 1);
        gen_after = generation_;

        // Survivors keep their ids; devices are renumbered densely
        // over them, mirroring BlockTrainer's degrade path.
        placed.clear();
        for (const auto &cand : workers) {
            if (!cand->alive || cand->rejoining)
                continue;
            WorkerInfo info;
            info.worker = cand->id;
            info.host = cand->host;
            info.port = cand->dataPort;
            placed.push_back(info);
        }
        if (!placed.empty())
            DistWorld::placeDevices(placed, bits_);
        health_->workerLost(worker, gen_after, reason);
        PRIMEPAR_INFORM("coordinator: worker ", worker, " lost (",
                        reason, "); generation now ", gen_after, ", ",
                        1 << bits_, " devices on ", placed.size(),
                        " workers");
    }
    cv.notify_all();
}

JsonValue
Coordinator::handleSuspect(WorkerState &from, std::int64_t suspected)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        from.inRpc = true;
    }
    // Block until the accusation resolves: either the suspected
    // worker's death is confirmed (its connection closed, or its
    // heartbeats went stale) or it proves alive by outliving the miss
    // budget from *now* — transient network trouble between two live
    // workers must not kill anyone.
    const std::int64_t budget_ms =
        static_cast<std::int64_t>(opts.dist.heartbeatMs) *
        opts.dist.heartbeatMissLimit;
    const std::int64_t deadline = steadyMs() + 2 * budget_ms;
    bool confirmed = false;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu);
            WorkerState *s = nullptr;
            for (auto &cand : workers)
                if (cand->id == suspected)
                    s = cand.get();
            if (!s || !s->alive) {
                confirmed = true; // already dead (or never existed)
                break;
            }
            if (steadyMs() - s->lastSeenMs > budget_ms) {
                lock.unlock();
                markDead(suspected, "suspected by worker " +
                                        std::to_string(from.id) +
                                        " + heartbeat stale");
                confirmed = true;
                break;
            }
            if (steadyMs() >= deadline)
                break; // heartbeats kept flowing: not guilty
            cv.wait_for(lock, std::chrono::milliseconds(
                                  opts.dist.heartbeatMs));
        }
        if (stopping)
            break;
    }
    std::lock_guard<std::mutex> lock(mu);
    from.inRpc = false;
    from.lastSeenMs = steadyMs();
    if (!confirmed)
        PRIMEPAR_INFORM("coordinator: worker ", from.id,
                        " suspected worker ", suspected,
                        " but its heartbeats are healthy");
    return currentWorldJson();
}

JsonValue
Coordinator::handleResync(WorkerState &from)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        from.inRpc = true;
        from.resyncing = true;
    }
    cv.notify_all();
    const std::int64_t budget_ms =
        static_cast<std::int64_t>(opts.dist.heartbeatMs) *
        opts.dist.heartbeatMissLimit;
    const std::int64_t deadline = steadyMs() + 2 * budget_ms;

    // Park until the flip (or its abandonment). The last survivor to
    // arrive performs the flip itself; everyone else wakes on the
    // generation bump.
    WorkerState *rj = nullptr;
    JsonValue welcome;
    std::int64_t rstep = -1;
    std::int64_t abandoned = -1;
    int bits_after = 0;
    std::size_t placed_after = 0;
    {
        std::unique_lock<std::mutex> lock(mu);
        const std::uint64_t entry_gen = generation_;
        for (;;) {
            if (stopping || pendingRejoin_ < 0 ||
                generation_ != entry_gen)
                break;
            bool all_parked = true;
            for (const auto &cand : workers)
                if (cand->alive && !cand->done && !cand->rejoining &&
                    !cand->resyncing)
                    all_parked = false;
            if (all_parked) {
                for (auto &cand : workers)
                    if (cand->id == pendingRejoin_)
                        rj = cand.get();
                PRIMEPAR_ASSERT(rj != nullptr,
                                "pending rejoiner vanished from the "
                                "worker table");
                // The flip: one generation, one bit back (capped at
                // the original grid), devices re-placed over
                // survivors + rejoiner in id order.
                ++generation_;
                bits_ = std::min(origBits_, bits_ + 1);
                rj->rejoining = false;
                rj->lastSeenMs = steadyMs();
                placed.clear();
                for (const auto &cand : workers) {
                    if (!cand->alive || cand->rejoining)
                        continue;
                    WorkerInfo info;
                    info.worker = cand->id;
                    info.host = cand->host;
                    info.port = cand->dataPort;
                    placed.push_back(info);
                }
                DistWorld::placeDevices(placed, bits_);
                // The rejoiner restores the lowest-id survivor's
                // step-R checkpoint snapshot.
                std::int64_t donor = -1;
                for (const auto &cand : workers)
                    if (cand->alive && !cand->done &&
                        cand->id != rj->id && donor < 0)
                        donor = cand->id;
                welcome = JsonValue::object();
                welcome.set("worker", JsonValue(rj->id));
                welcome.set("world", currentWorldJson());
                welcome.set("job", opts.job);
                welcome.set("resume_step", JsonValue(resumeStep_));
                welcome.set("restore_from", JsonValue(donor));
                rstep = resumeStep_;
                bits_after = bits_;
                placed_after = placed.size();
                pendingRejoin_ = -1;
                resumeStep_ = -1;
                for (auto &cand : workers)
                    cand->resyncing = false;
                break;
            }
            if (steadyMs() >= deadline) {
                abandoned = pendingRejoin_;
                break;
            }
            cv.wait_for(lock, std::chrono::milliseconds(
                                  opts.dist.heartbeatMs));
        }
        from.inRpc = false;
        from.resyncing = false;
        from.lastSeenMs = steadyMs();
    }
    cv.notify_all();

    if (abandoned >= 0) {
        // The barrier never completed (rejoiner or a survivor gone):
        // give up on the rejoiner and resume on the degraded grid.
        markDead(abandoned, "re-join barrier timeout");
    } else if (rj) {
        // Deferred welcome: the rejoiner has been blocked in its
        // registration RPC since tryAcceptRejoin().
        if (writeFrame(rj->conn,
                       ctrlFrame(FrameType::CtrlResp, "welcome", -1,
                                 generation_, welcome),
                       opts.dist.transferDeadlineMs) ==
            IoResult::Ok) {
            rj->reader = std::thread([this, &w_ref = *rj] {
                readerLoop(w_ref);
            });
            PRIMEPAR_INFORM("coordinator: worker ", rj->id,
                            " re-joined; generation now ",
                            generation(), ", ", 1 << bits_after,
                            " devices on ", placed_after,
                            " workers; resuming at step ", rstep);
            std::lock_guard<std::mutex> lock(mu);
            health_->workerUp(rj->id, generation_);
        } else {
            markDead(rj->id, "closed before re-join welcome");
        }
    }

    std::lock_guard<std::mutex> lock(mu);
    return currentWorldJson();
}

std::map<std::int64_t, double>
Coordinator::losses() const
{
    std::lock_guard<std::mutex> lock(mu);
    return lossByStep;
}

std::uint64_t
Coordinator::generation() const
{
    std::lock_guard<std::mutex> lock(mu);
    return generation_;
}

int
Coordinator::workersLost() const
{
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<int>(health_->workersLost);
}

int
Coordinator::divergences() const
{
    std::lock_guard<std::mutex> lock(mu);
    return diverged;
}

// ---------------------------------------------------------------------------
// CoordinatorClient

CoordinatorClient::CoordinatorClient(DistOptions dist_in)
    : dist(dist_in)
{}

CoordinatorClient::~CoordinatorClient()
{
    stopHeartbeats();
}

void
CoordinatorClient::connect(const std::string &host, int port)
{
    sock = netConnect(host, port, dist.connectTimeoutMs);
    if (!sock.valid())
        throw RuntimeError("cannot reach coordinator at " + host +
                           ":" + std::to_string(port));
}

void
CoordinatorClient::send(const WireFrame &f)
{
    std::lock_guard<std::mutex> lock(sendMu);
    if (writeFrame(sock, f, dist.transferDeadlineMs) != IoResult::Ok)
        throw RuntimeError("lost connection to coordinator");
}

JsonValue
CoordinatorClient::rpc(const char *verb, const JsonValue &body,
                       int deadline_ms, const char *respVerb)
{
    send(ctrlFrame(FrameType::Ctrl, verb, myId, generation_, body));
    if (!respVerb)
        respVerb = verb;
    // Responses only ever arrive as answers to requests, in order, so
    // the caller of the RPC is always the rightful reader.
    WireFrame resp;
    for (;;) {
        const IoResult r = readFrame(sock, resp, deadline_ms);
        if (r != IoResult::Ok)
            throw RuntimeError(std::string("coordinator rpc '") +
                               verb + "' failed: " +
                               ioResultName(r));
        if (resp.type == FrameType::CtrlResp &&
            resp.tensor == respVerb)
            break;
    }
    return parsePayload(resp);
}

JsonValue
CoordinatorClient::registerWorker(int dataPort)
{
    JsonValue body = JsonValue::object();
    body.set("port", JsonValue(static_cast<std::int64_t>(dataPort)));
    // The barrier waits for every worker, so be generous.
    const JsonValue welcome =
        rpc("register", body,
            std::max(10000, dist.connectTimeoutMs * 10), "welcome");
    if (const JsonValue *refused = welcome.find("refused"))
        throw RejoinRefusedError("coordinator refused the registration: " +
                                 refused->asString());
    myId = static_cast<std::int64_t>(welcome.at("worker").asNumber());
    // A rejoiner's welcome arrives from a later generation; adopt it.
    generation_ = 0;
    if (const JsonValue *w = welcome.find("world"))
        generation_ = DistWorld::fromJson(*w).generation;
    return welcome;
}

void
CoordinatorClient::startHeartbeats(int periodMs)
{
    stopHb = false;
    heartbeatThread = std::thread([this, periodMs] {
        while (!stopHb) {
            WireFrame hb;
            hb.type = FrameType::Heartbeat;
            hb.sender = myId;
            hb.generation = generation_;
            {
                std::lock_guard<std::mutex> lock(sendMu);
                if (writeFrame(sock, hb,
                               dist.transferDeadlineMs) !=
                    IoResult::Ok)
                    return; // coordinator gone; the main thread
                            // finds out on its next RPC
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(periodMs));
        }
    });
}

void
CoordinatorClient::stopHeartbeats()
{
    stopHb = true;
    if (heartbeatThread.joinable())
        heartbeatThread.join();
}

StepAck
CoordinatorClient::reportStep(std::int64_t step, double loss)
{
    JsonValue body = JsonValue::object();
    body.set("step", JsonValue(step));
    body.set("loss", JsonValue(loss));
    const JsonValue resp =
        rpc("step", body,
            2 * dist.heartbeatMs * dist.heartbeatMissLimit + 5000);
    StepAck ack;
    ack.generation = generation_;
    if (const JsonValue *p = resp.find("pause_at"))
        ack.pauseAt = static_cast<std::int64_t>(p->asNumber());
    return ack;
}

DistWorld
CoordinatorClient::resync(std::int64_t step)
{
    JsonValue body = JsonValue::object();
    body.set("step", JsonValue(step));
    // The coordinator may hold the barrier for 2x the miss budget.
    const int deadline =
        4 * dist.heartbeatMs * dist.heartbeatMissLimit + 5000;
    const JsonValue resp = rpc("resync", body, deadline);
    DistWorld w = DistWorld::fromJson(resp.at("world"));
    w.myWorker = myId;
    generation_ = w.generation;
    return w;
}

DistWorld
CoordinatorClient::suspect(std::int64_t suspected)
{
    JsonValue body = JsonValue::object();
    body.set("worker", JsonValue(suspected));
    // The coordinator may spend 2x the miss budget deciding.
    const int deadline =
        4 * dist.heartbeatMs * dist.heartbeatMissLimit + 5000;
    const JsonValue resp = rpc("suspect", body, deadline);
    DistWorld w = DistWorld::fromJson(resp.at("world"));
    w.myWorker = myId;
    generation_ = w.generation;
    return w;
}

DistWorld
CoordinatorClient::fetchWorld()
{
    const JsonValue resp =
        rpc("world", JsonValue::object(),
            2 * dist.heartbeatMs * dist.heartbeatMissLimit + 5000);
    DistWorld w = DistWorld::fromJson(resp.at("world"));
    w.myWorker = myId;
    generation_ = w.generation;
    return w;
}

void
CoordinatorClient::done(std::int64_t finalStep, double finalLoss)
{
    JsonValue body = JsonValue::object();
    body.set("step", JsonValue(finalStep));
    body.set("loss", JsonValue(finalLoss));
    send(ctrlFrame(FrameType::Ctrl, "done", myId, generation_, body));
}

} // namespace primepar
