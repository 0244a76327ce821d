#include "serve/requant_service.hpp"

#include <stdexcept>

#include "serve/device.hpp"

namespace raq::serve {

RequantService::RequantService(int num_workers) {
    if (num_workers < 1)
        throw std::invalid_argument("RequantService: num_workers must be >= 1");
    workers_.reserve(static_cast<std::size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

RequantService::~RequantService() { shutdown(); }

void RequantService::enqueue(NpuDevice& device, double dvth_mv,
                             std::uint64_t generation) {
    {
        const common::MutexLock lock(mutex_);
        if (stopped_) return;
        jobs_.push_back(Job{&device, dvth_mv, generation});
    }
    cv_.notify_one();
}

void RequantService::worker_loop() {
    for (;;) {
        Job job;
        {
            const common::MutexLock lock(mutex_);
            while (!stopped_ && jobs_.empty()) cv_.wait(mutex_);
            if (jobs_.empty()) return;  // stopped and drained
            job = jobs_.front();
            jobs_.pop_front();
        }
        // The build runs entirely off the serving path: it reads the
        // immutable ServeContext and writes only the device's pending
        // slot, so the device keeps serving its current generation.
        job.device->execute_requant(job.dvth_mv, job.generation);
    }
}

void RequantService::shutdown() {
    {
        const common::MutexLock lock(mutex_);
        if (stopped_) return;
        stopped_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
}

}  // namespace raq::serve
