#include "telemetry/registry.h"

namespace overgen::telemetry {

Counter &
Registry::counter(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex);
    return counterMap[path];
}

namespace {

/** Insert @p leaf into @p root under the '/'-separated @p path. */
void
insertAtPath(Json &root, const std::string &path, Json leaf)
{
    Json *node = &root;
    size_t begin = 0;
    while (true) {
        size_t slash = path.find('/', begin);
        std::string segment = path.substr(
            begin, slash == std::string::npos ? std::string::npos
                                              : slash - begin);
        if (slash == std::string::npos) {
            node->set(segment, std::move(leaf));
            return;
        }
        if (!node->contains(segment))
            node->set(segment, Json::makeObject());
        node = &node->asObject()[segment];
        begin = slash + 1;
    }
}

} // namespace

Json
Registry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex);
    Json root = Json::makeObject();
    for (const auto &[path, c] : counterMap)
        insertAtPath(root, path, Json(c.value()));
    return root;
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    counterMap.clear();
}

} // namespace overgen::telemetry
