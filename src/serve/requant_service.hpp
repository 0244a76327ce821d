// RequantService: the background half of online re-quantization.
//
// When a device crosses its ΔVth threshold at a batch boundary it no
// longer runs Algorithm 1 inline (stalling every queued batch for the
// full PTQ method search); it enqueues a job here and keeps serving its
// current ModelState. A service worker builds the next generation off
// the serving path (NpuDevice::execute_requant → core::RequantJob) and
// publishes it into the device's pending slot; the device adopts it at
// its next batch boundary with an atomic payload rebind. The old
// generation serves every batch until the swap — double buffering at the
// fleet level.
//
// Coalescing: at most one build is in flight per device (the device's
// in-flight flag gates enqueue), so a fast-aging device cannot flood the
// pool; a crossing observed while a build is in flight is absorbed into
// the next trigger.
//
// shutdown() drains the queue — every accepted job is built and
// published, never dropped — then joins the workers. NpuServer shuts the
// service down after its serve workers have joined and then adopts any
// still-pending states, so the fleet's final generations match what an
// inline run would have deployed.
#pragma once

#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace raq::serve {

class NpuDevice;

class RequantService {
public:
    explicit RequantService(int num_workers);
    ~RequantService();

    RequantService(const RequantService&) = delete;
    RequantService& operator=(const RequantService&) = delete;

    /// Enqueue a build of `generation` for `device` at aging level
    /// `dvth_mv` (NpuDevice::execute_requant). The caller (the device's
    /// serve thread) must hold the device's in-flight gate, which is what
    /// guarantees at most one job per device. Ignored after shutdown.
    void enqueue(NpuDevice& device, double dvth_mv, std::uint64_t generation)
        RAQ_EXCLUDES(mutex_);

    /// Drain every accepted job, then join the workers. Idempotent.
    void shutdown() RAQ_EXCLUDES(mutex_);

private:
    void worker_loop() RAQ_EXCLUDES(mutex_);

    struct Job {
        NpuDevice* device = nullptr;
        double dvth_mv = 0.0;
        std::uint64_t generation = 0;
    };

    common::Mutex mutex_;
    common::CondVar cv_;
    std::deque<Job> jobs_ RAQ_GUARDED_BY(mutex_);
    bool stopped_ RAQ_GUARDED_BY(mutex_) = false;
    /// Constructor/shutdown-thread only (join-synchronized, unguarded).
    std::vector<std::thread> workers_;
};

}  // namespace raq::serve
